package core

import (
	"fmt"
	"math"
	"strings"

	"cafteams/internal/team"
)

//go:generate go run ../../cmd/teamsbench -exp autotable -out autotable_gen.go

// AutoKey is what the decision table knows about one collective call: how the
// team sits on the machine and how much each image contributes.
type AutoKey struct {
	PerNode int // images on the team's fullest node
	Sockets int // sockets the images of one node occupy, at most
	Nodes   int // nodes the team spans
	Bytes   int // payload bytes per image (the block, for the personalized kinds); 0 for a barrier
}

// AutoKeyOf is the key of a call on team v with bytes payload bytes per image.
func AutoKeyOf(v *team.View, bytes int) AutoKey {
	t := v.T
	return AutoKey{PerNode: t.MaxNodeGroup(), Sockets: t.MaxSockets(), Nodes: t.NumNodeGroups(), Bytes: bytes}
}

// AutoRow is one line of the decision table: a call with at most PerNode
// images per node on at most Sockets sockets each, on at most Nodes nodes,
// with fewer than Below payload bytes, runs Alg — or Flat, the best of the
// hierarchy-oblivious algorithms, when the policy's level is LevelFlat.
type AutoRow struct {
	PerNode, Sockets, Nodes, Below int
	Alg, Flat                      string
}

// inf is the bound of a row's open side.
const inf = math.MaxInt

func (r AutoRow) String() string {
	bound := func(v int, unit string) string {
		if v == inf {
			return "any " + unit
		}
		return fmt.Sprintf("<=%d %s", v, unit)
	}
	below := "any size"
	if r.Below != inf {
		below = fmt.Sprintf("<%d B", r.Below)
	}
	return fmt.Sprintf("%s, %s, %s, %s", bound(r.PerNode, "per node"), bound(r.Sockets, "sockets"), bound(r.Nodes, "nodes"), below)
}

// matches reports whether key falls under the row's bounds; Below is
// exclusive, except that inf is no bound at all (FuzzFirstMatch).
func (r AutoRow) matches(key AutoKey) bool {
	return key.PerNode <= r.PerNode && key.Sockets <= r.Sockets && key.Nodes <= r.Nodes && (key.Bytes < r.Below || r.Below == inf)
}

// FirstMatch is the one lookup: the position of the first of rows that
// matches key, -1 when none does.
func FirstMatch(rows []AutoRow, key AutoKey) int {
	for i := range rows {
		if rows[i].matches(key) {
			return i
		}
	}
	return -1
}

// AutoPick looks key up in kind k's table (autoTable, generated — see
// autotable_gen.go) and returns the row and its position. A kind's rows are
// sorted and the last one is open on every side, so every key finds one.
func AutoPick(k Kind, key AutoKey) (AutoRow, int) {
	i := FirstMatch(autoTable[k], key)
	return autoTable[k][i], i
}

// LevelChoice is the algorithm the hierarchy level alone selects for kind k —
// the paper's methodology. LevelAuto is resolved per team (two-level where a
// node holds several of its images), not here.
func LevelChoice(k Kind, l Level) string {
	switch l {
	case LevelTwo:
		return kindTable[k].two
	case LevelThree:
		return kindTable[k].three
	}
	return kindTable[k].unsized
}

// HierarchyAware reports whether a registered algorithm consults the team's
// placement (and so is not a candidate for a row's Flat column). An "nb-"
// alias answers as the algorithm it runs.
func HierarchyAware(name string) bool {
	switch strings.TrimPrefix(name, "nb-") {
	case "tdlb", "tdll", "tdlb3", "2level", "3level":
		return true
	}
	return false
}
