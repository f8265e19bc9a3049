// Command caftopo inspects a placement: it prints the node/socket layout,
// the per-team intranode sets and leaders the hierarchy-aware runtime would
// use, and the effective collective policy — the runtime introspection the
// paper's methodology (§IV-A, "detecting the images within a team that run
// locally on the same node") is built on.
//
// Usage:
//
//	caftopo [-spec images(nodes)] [-teams n]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

func main() {
	spec := flag.String("spec", "64(8)", "placement, \"images(nodes)\"")
	teams := flag.Int("teams", 2, "split the initial team into this many round-robin teams")
	flag.Parse()

	if err := describe(os.Stdout, *spec, *teams); err != nil {
		fmt.Fprintln(os.Stderr, "caftopo:", err)
		os.Exit(1)
	}
}

// describe renders the topology and per-team hierarchy report for one
// placement split into k round-robin teams.
func describe(out io.Writer, spec string, k int) error {
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("need at least one team, got %d", k)
	}
	fmt.Fprintln(out, "topology:", topo)
	for _, n := range topo.UsedNodes() {
		fmt.Fprintf(out, "  node %2d: images %v\n", n, topo.ImagesOnNode(n))
	}

	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		return err
	}
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		sub := core.Form(v, int64(im.Rank()%k)+1, -1)
		// The first member of each team describes it.
		if sub.ThisImage() == 0 {
			t := sub.T
			fmt.Fprintf(out, "\nteam number %d: %s\n", t.Number(), t)
			for gi := 0; gi < t.NumNodeGroups(); gi++ {
				grp := t.NodeGroup(gi)
				globals := make([]int, len(grp))
				for i, r := range grp {
					globals[i] = t.GlobalRank(r)
				}
				fmt.Fprintf(out, "  intranode set on node %2d: team ranks %v (images %v), leader = team rank %d\n",
					t.Nodes()[gi], grp, globals, t.Leaders()[gi])
				for si, sg := range t.SocketGroups(gi) {
					fmt.Fprintf(out, "    socket %d: team ranks %v, socket leader %d\n", si, sg, t.SocketLeaders(gi)[si])
				}
			}
		}
	})
	return nil
}
