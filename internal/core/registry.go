package core

import (
	"fmt"
	"slices"
	"strings"

	"cafteams/internal/coll"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// Kind names one collective operation class. Every kind owns a table of
// named algorithms; a (kind, algorithm-name) pair fully identifies one
// implementation, e.g. "allreduce/rd" or "barrier/tdlb".
type Kind int

// The collective kinds of the runtime.
const (
	KindBarrier Kind = iota
	KindAllreduce
	KindReduceTo
	KindBroadcast
	KindAllgather
	KindScatter
	KindGather
	KindAlltoall
	KindScan
	numKinds
)

// AlgAuto selects an algorithm per call from the team shape and message
// size (see Tuning).
const AlgAuto = "auto"

// kindTable is the one per-kind table: display name, the algorithm names
// compiled into the kind, in canonical (listing) order — hierarchy-oblivious
// ones, then hierarchy-aware ones (see HierarchyAware), then aliases — and
// what the hierarchy level alone selects (see Policy.AlgFor): the flat, the
// two-level and the three-level choice. Built-in generic algorithms cannot be
// stored as values for every possible element type, so dispatch instantiates
// them on demand in the kind's Run* switch; adding an algorithm is a name here
// plus a case there. The "nb-" names are aliases (see onCoroutine in
// async.go): dispatched through Run* they run the algorithm they prefix on a
// coroutine.
var kindTable = [numKinds]struct {
	name                string
	builtins            []string
	unsized, two, three string
}{
	KindBarrier: {"barrier", []string{"dissemination", "linear", "tree", "tournament", "tdlb", "tdll", "tdlb3"},
		"dissemination", "tdlb", "tdlb3"},
	KindAllreduce: {"allreduce", []string{"rd", "linear", "tree", "ring", "2level", "3level", "nb-rd", "nb-2level"},
		"rd", "2level", "3level"},
	KindReduceTo: {"reduceto", []string{"binomial", "linear", "2level"},
		"binomial", "2level", "2level"},
	KindBroadcast: {"bcast", []string{"binomial", "linear", "scatter-allgather", "2level", "nb-binomial", "nb-2level"},
		"binomial", "2level", "2level"},
	KindAllgather: {"allgather", []string{"ring", "bruck", "2level", "nb-ring", "nb-2level"},
		"ring", "2level", "2level"},
	KindScatter: {"scatter", []string{"linear", "binomial", "2level"},
		"binomial", "2level", "2level"},
	KindGather: {"gather", []string{"linear", "binomial", "2level"},
		"binomial", "2level", "2level"},
	KindAlltoall: {"alltoall", []string{"pairwise", "bruck", "2level"},
		"pairwise", "2level", "2level"},
	KindScan: {"scan", []string{"linear", "rd", "2level"},
		"rd", "2level", "2level"},
}

// The decision counters of trace.Stats are indexed by kind and by position in
// builtins (TestBuiltinsTableStaysConsistent holds the second bound).
var _ [trace.AutoKinds - numKinds]struct{}

func (k Kind) valid() bool { return k >= 0 && k < numKinds }

func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindTable[k].name
}

// Kinds returns every collective kind, in display order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// ParseKind resolves a kind display name ("barrier", "allreduce",
// "reduceto", "bcast", "allgather", "scatter", "gather", "alltoall",
// "scan") back to its Kind.
func ParseKind(s string) (Kind, error) {
	names := make([]string, numKinds)
	for k, d := range kindTable {
		if d.name == s {
			return Kind(k), nil
		}
		names[k] = d.name
	}
	return 0, fmt.Errorf("core: unknown collective kind %q (want one of %s)", s, strings.Join(names, ", "))
}

// Algorithms returns every selectable algorithm name for a kind, in
// canonical order.
func Algorithms(k Kind) []string {
	if !k.valid() {
		return nil
	}
	return append([]string(nil), kindTable[k].builtins...)
}

// HasAlgorithm reports whether name is selectable for kind k ("auto" always
// is).
func HasAlgorithm(k Kind, name string) bool {
	return name == "" || name == AlgAuto || k.valid() && slices.Contains(kindTable[k].builtins, name)
}

func unknownAlg(k Kind, name string) string {
	return fmt.Sprintf("core: unknown algorithm %s/%s (registered: %s)",
		k, name, strings.Join(Algorithms(k), ", "))
}

// RunBarrier executes the named barrier algorithm on the team.
func RunBarrier(name string, v *team.View) {
	switch name {
	case "dissemination":
		coll.BarrierDissemination(v)
	case "linear":
		coll.BarrierLinear(v)
	case "tree":
		coll.BarrierTree(v)
	case "tournament":
		coll.BarrierTournament(v)
	case "tdlb":
		BarrierTDLB(v)
	case "tdll":
		BarrierTDLL(v)
	case "tdlb3":
		BarrierTDLB3(v)
	default:
		panic(unknownAlg(KindBarrier, name))
	}
}

// RunAllreduce executes the named allreduce algorithm on buf.
func RunAllreduce[T any](name string, v *team.View, buf []T, op coll.Op[T]) {
	switch name {
	case "rd":
		coll.AllreduceRD(v, buf, op)
	case "linear":
		coll.AllreduceLinear(v, buf, op)
	case "tree":
		coll.AllreduceTree(v, buf, op)
	case "ring":
		coll.AllreduceRing(v, buf, op)
	case "2level":
		AllreduceTwoLevel(v, buf, op)
	case "3level":
		AllreduceThreeLevel(v, buf, op)
	case "nb-rd", "nb-2level":
		onCoroutine(v, func() { RunAllreduce(name[len("nb-"):], v, buf, op) })
	default:
		panic(unknownAlg(KindAllreduce, name))
	}
}

// RunReduceTo executes the named reduce-to-one algorithm; only team rank
// root ends with the combined result.
func RunReduceTo[T any](name string, v *team.View, root int, buf []T, op coll.Op[T]) {
	switch name {
	case "binomial":
		coll.ReduceToRoot(v, root, buf, op)
	case "linear":
		coll.ReduceToRootLinear(v, root, buf, op)
	case "2level":
		ReduceToRootTwoLevel(v, root, buf, op)
	default:
		panic(unknownAlg(KindReduceTo, name))
	}
}

// RunBroadcast executes the named broadcast algorithm from team rank root.
func RunBroadcast[T any](name string, v *team.View, root int, buf []T) {
	switch name {
	case "binomial":
		coll.BcastBinomial(v, root, buf)
	case "linear":
		coll.BcastLinear(v, root, buf)
	case "scatter-allgather":
		coll.BcastScatterAllgather(v, root, buf)
	case "2level":
		BcastTwoLevel(v, root, buf)
	case "nb-binomial", "nb-2level":
		onCoroutine(v, func() { RunBroadcast(name[len("nb-"):], v, root, buf) })
	default:
		panic(unknownAlg(KindBroadcast, name))
	}
}

// RunAllgather executes the named allgather algorithm.
func RunAllgather[T any](name string, v *team.View, mine, out []T) {
	switch name {
	case "ring":
		coll.AllgatherRing(v, mine, out)
	case "bruck":
		coll.AllgatherBruck(v, mine, out)
	case "2level":
		AllgatherTwoLevel(v, mine, out)
	case "nb-ring", "nb-2level":
		onCoroutine(v, func() { RunAllgather(name[len("nb-"):], v, mine, out) })
	default:
		panic(unknownAlg(KindAllgather, name))
	}
}

// RunScatter executes the named scatter algorithm from team rank root: each
// member receives its len(recv)-element block of the root's send vector.
func RunScatter[T any](name string, v *team.View, root int, send, recv []T) {
	switch name {
	case "linear":
		coll.ScatterLinear(v, root, send, recv)
	case "binomial":
		coll.ScatterBinomial(v, root, send, recv)
	case "2level":
		ScatterTwoLevel(v, root, send, recv)
	default:
		panic(unknownAlg(KindScatter, name))
	}
}

// RunGather executes the named gather algorithm: team rank root collects
// every member's send block into recv, ordered by team rank.
func RunGather[T any](name string, v *team.View, root int, send, recv []T) {
	switch name {
	case "linear":
		coll.GatherLinear(v, root, send, recv)
	case "binomial":
		coll.GatherBinomial(v, root, send, recv)
	case "2level":
		GatherTwoLevel(v, root, send, recv)
	default:
		panic(unknownAlg(KindGather, name))
	}
}

// RunAlltoall executes the named personalized all-to-all exchange: send
// block j goes to team rank j, recv block i arrives from team rank i.
func RunAlltoall[T any](name string, v *team.View, send, recv []T) {
	switch name {
	case "pairwise":
		coll.AlltoallPairwise(v, send, recv)
	case "bruck":
		coll.AlltoallBruck(v, send, recv)
	case "2level":
		AlltoallTwoLevel(v, send, recv)
	default:
		panic(unknownAlg(KindAlltoall, name))
	}
}

// RunScan executes the named prefix reduction over team rank order:
// inclusive (buf becomes the reduction over ranks [0, r]) or exclusive
// (over [0, r); rank 0's buf is left unchanged).
func RunScan[T any](name string, v *team.View, buf []T, op coll.Op[T], exclusive bool) {
	switch name {
	case "linear":
		coll.ScanLinear(v, buf, op, exclusive)
	case "rd":
		coll.ScanRD(v, buf, op, exclusive)
	case "2level":
		ScanTwoLevel(v, buf, op, exclusive)
	default:
		panic(unknownAlg(KindScan, name))
	}
}
