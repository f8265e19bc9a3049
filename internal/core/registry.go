package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
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

func (k Kind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindAllreduce:
		return "allreduce"
	case KindReduceTo:
		return "reduceto"
	case KindBroadcast:
		return "bcast"
	case KindAllgather:
		return "allgather"
	case KindScatter:
		return "scatter"
	case KindGather:
		return "gather"
	case KindAlltoall:
		return "alltoall"
	case KindScan:
		return "scan"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds returns every collective kind, in display order.
func Kinds() []Kind {
	return []Kind{KindBarrier, KindAllreduce, KindReduceTo, KindBroadcast,
		KindAllgather, KindScatter, KindGather, KindAlltoall, KindScan}
}

// ParseKind resolves a kind display name ("barrier", "allreduce",
// "reduceto", "bcast", "allgather", "scatter", "gather", "alltoall",
// "scan") back to its Kind.
func ParseKind(s string) (Kind, error) {
	names := make([]string, 0, numKinds)
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("core: unknown collective kind %q (want one of %s)", s, strings.Join(names, ", "))
}

// Signatures of pluggable algorithm implementations. Barriers are
// element-type independent; the data-bearing kinds are generic over the
// element type and registered per instantiation.
type (
	// BarrierFn synchronizes the team.
	BarrierFn func(v *team.View)
	// AllreduceFn combines buf element-wise across the team; every member
	// ends with the result.
	AllreduceFn[T any] func(v *team.View, buf []T, op coll.Op[T])
	// ReduceToFn combines buf onto team rank root only.
	ReduceToFn[T any] func(v *team.View, root int, buf []T, op coll.Op[T])
	// BroadcastFn copies team rank root's buf to every member.
	BroadcastFn[T any] func(v *team.View, root int, buf []T)
	// AllgatherFn concatenates every member's mine into out by team rank.
	AllgatherFn[T any] func(v *team.View, mine, out []T)
	// ScatterFn distributes team rank root's send (one len(recv)-element
	// block per member, by team rank) so each member receives its block in
	// recv; send is significant only at the root.
	ScatterFn[T any] func(v *team.View, root int, send, recv []T)
	// GatherFn collects every member's send block into recv on team rank
	// root only, ordered by team rank; recv is significant only at the
	// root.
	GatherFn[T any] func(v *team.View, root int, send, recv []T)
	// AlltoallFn performs the personalized all-to-all exchange: send block
	// j goes to team rank j, recv block i arrives from team rank i.
	AlltoallFn[T any] func(v *team.View, send, recv []T)
	// ScanFn computes the prefix reduction over team rank order: inclusive
	// (buf over ranks [0, r]) or exclusive (buf over [0, r), rank 0's buf
	// unchanged).
	ScanFn[T any] func(v *team.View, buf []T, op coll.Op[T], exclusive bool)
)

// AlgAuto selects an algorithm per call from the team shape and message
// size (see Tuning).
const AlgAuto = "auto"

// builtins lists the algorithm names compiled into each kind's table.
// Built-in generic algorithms cannot be stored as values for every possible
// element type, so dispatch instantiates them on demand (see runAllreduce
// and friends); this table is the source of truth for listing/validation.
// The "nb-" names are aliases (see onCoroutine in async.go): dispatched
// through Run* they run the algorithm they prefix on a coroutine.
var builtins = map[Kind][]string{
	KindBarrier:   {"dissemination", "linear", "tree", "tournament", "tdlb", "tdll", "tdlb3"},
	KindAllreduce: {"rd", "linear", "tree", "ring", "2level", "3level", "nb-rd", "nb-2level"},
	KindReduceTo:  {"binomial", "linear", "2level"},
	KindBroadcast: {"binomial", "linear", "scatter-allgather", "2level", "nb-binomial", "nb-2level"},
	KindAllgather: {"ring", "bruck", "2level", "nb-ring", "nb-2level"},
	KindScatter:   {"linear", "binomial", "2level"},
	KindGather:    {"linear", "binomial", "2level"},
	KindAlltoall:  {"pairwise", "bruck", "2level"},
	KindScan:      {"linear", "rd", "2level"},
}

// custom holds user-registered algorithms: barriers keyed by name, typed
// algorithms keyed by name plus the element type they were instantiated for.
var (
	customMu sync.RWMutex
	custom   [numKinds]map[string]any
	// customNames tracks the registered display names per kind (a typed
	// algorithm registered for several element types appears once).
	customNames [numKinds]map[string]bool
)

func typedKey[T any](name string) string { return name + "\x00" + pgas.TypeName[T]() }

func register(k Kind, key, name string, fn any) {
	if name == "" || name == AlgAuto || strings.ContainsAny(name, "/\x00") {
		panic(fmt.Sprintf("core: invalid algorithm name %q for kind %s", name, k))
	}
	for _, b := range builtins[k] {
		if b == name {
			panic(fmt.Sprintf("core: algorithm %s/%s is built in and cannot be replaced", k, name))
		}
	}
	customMu.Lock()
	defer customMu.Unlock()
	if custom[k] == nil {
		custom[k] = map[string]any{}
		customNames[k] = map[string]bool{}
	}
	custom[k][key] = fn
	customNames[k][name] = true
}

func lookupCustom(k Kind, key string) (any, bool) {
	customMu.RLock()
	defer customMu.RUnlock()
	fn, ok := custom[k][key]
	return fn, ok
}

// RegisterBarrier adds a named barrier algorithm to the registry. It panics
// on a name collision with a built-in; re-registering a custom name
// replaces it.
func RegisterBarrier(name string, fn BarrierFn) {
	register(KindBarrier, name, name, fn)
}

// RegisterAllreduce adds a named allreduce algorithm for element type T.
// A name must be registered once per element type it is used with.
func RegisterAllreduce[T any](name string, fn AllreduceFn[T]) {
	register(KindAllreduce, typedKey[T](name), name, fn)
}

// RegisterReduceTo adds a named reduce-to-one algorithm for element type T.
func RegisterReduceTo[T any](name string, fn ReduceToFn[T]) {
	register(KindReduceTo, typedKey[T](name), name, fn)
}

// RegisterBroadcast adds a named broadcast algorithm for element type T.
func RegisterBroadcast[T any](name string, fn BroadcastFn[T]) {
	register(KindBroadcast, typedKey[T](name), name, fn)
}

// RegisterAllgather adds a named allgather algorithm for element type T.
func RegisterAllgather[T any](name string, fn AllgatherFn[T]) {
	register(KindAllgather, typedKey[T](name), name, fn)
}

// RegisterScatter adds a named scatter algorithm for element type T.
func RegisterScatter[T any](name string, fn ScatterFn[T]) {
	register(KindScatter, typedKey[T](name), name, fn)
}

// RegisterGather adds a named gather algorithm for element type T.
func RegisterGather[T any](name string, fn GatherFn[T]) {
	register(KindGather, typedKey[T](name), name, fn)
}

// RegisterAlltoall adds a named all-to-all algorithm for element type T.
func RegisterAlltoall[T any](name string, fn AlltoallFn[T]) {
	register(KindAlltoall, typedKey[T](name), name, fn)
}

// RegisterScan adds a named prefix-reduction algorithm for element type T.
func RegisterScan[T any](name string, fn ScanFn[T]) {
	register(KindScan, typedKey[T](name), name, fn)
}

// Algorithms returns every selectable algorithm name for a kind: built-ins
// in their canonical order, then custom registrations sorted by name.
func Algorithms(k Kind) []string {
	names := append([]string(nil), builtins[k]...)
	customMu.RLock()
	var extra []string
	for name := range customNames[k] {
		extra = append(extra, name)
	}
	customMu.RUnlock()
	sort.Strings(extra)
	return append(names, extra...)
}

// HasAlgorithm reports whether name is selectable for kind k ("auto" always
// is).
func HasAlgorithm(k Kind, name string) bool {
	if name == "" || name == AlgAuto {
		return true
	}
	for _, b := range builtins[k] {
		if b == name {
			return true
		}
	}
	customMu.RLock()
	defer customMu.RUnlock()
	return customNames[k][name]
}

func unknownAlg(k Kind, name string) string {
	return fmt.Sprintf("core: unknown algorithm %s/%s (registered: %s)",
		k, name, strings.Join(Algorithms(k), ", "))
}

// typedMiss distinguishes "name never registered" from "name registered,
// but not for this element type" when a typed lookup fails.
func typedMiss[T any](k Kind, name string) string {
	customMu.RLock()
	known := customNames[k][name]
	customMu.RUnlock()
	if known {
		return fmt.Sprintf("core: algorithm %s/%s is not registered for element type %s (register it with Register%s[%s] before use)",
			k, name, pgas.TypeName[T](), registerName(k), pgas.TypeName[T]())
	}
	return unknownAlg(k, name)
}

func registerName(k Kind) string {
	switch k {
	case KindAllreduce:
		return "Allreduce"
	case KindReduceTo:
		return "ReduceTo"
	case KindBroadcast:
		return "Broadcast"
	case KindAllgather:
		return "Allgather"
	case KindScatter:
		return "Scatter"
	case KindGather:
		return "Gather"
	case KindAlltoall:
		return "Alltoall"
	case KindScan:
		return "Scan"
	default:
		return "Barrier"
	}
}

// RunBarrier executes the named barrier algorithm on the team.
func RunBarrier(name string, v *team.View) {
	switch name {
	case "dissemination":
		coll.BarrierDissemination(v, pgas.ViaConduit)
	case "linear":
		coll.BarrierLinear(v, pgas.ViaConduit)
	case "tree":
		coll.BarrierTree(v, pgas.ViaConduit)
	case "tournament":
		coll.BarrierTournament(v, pgas.ViaConduit)
	case "tdlb":
		BarrierTDLB(v)
	case "tdll":
		BarrierTDLL(v)
	case "tdlb3":
		BarrierTDLB3(v)
	default:
		if fn, ok := lookupCustom(KindBarrier, name); ok {
			fn.(BarrierFn)(v)
			return
		}
		panic(unknownAlg(KindBarrier, name))
	}
}

// RunAllreduce executes the named allreduce algorithm on buf.
func RunAllreduce[T any](name string, v *team.View, buf []T, op coll.Op[T]) {
	switch name {
	case "rd":
		coll.AllreduceRD(v, buf, op, pgas.ViaConduit)
	case "linear":
		coll.AllreduceLinear(v, buf, op, pgas.ViaConduit)
	case "tree":
		coll.AllreduceTree(v, buf, op, pgas.ViaConduit)
	case "ring":
		coll.AllreduceRing(v, buf, op, pgas.ViaConduit)
	case "2level":
		AllreduceTwoLevel(v, buf, op)
	case "3level":
		AllreduceThreeLevel(v, buf, op)
	case "nb-rd", "nb-2level":
		onCoroutine(v, func() { RunAllreduce(name[len("nb-"):], v, buf, op) })
	default:
		if fn, ok := lookupCustom(KindAllreduce, typedKey[T](name)); ok {
			fn.(AllreduceFn[T])(v, buf, op)
			return
		}
		panic(typedMiss[T](KindAllreduce, name))
	}
}

// RunReduceTo executes the named reduce-to-one algorithm; only team rank
// root ends with the combined result.
func RunReduceTo[T any](name string, v *team.View, root int, buf []T, op coll.Op[T]) {
	switch name {
	case "binomial":
		coll.ReduceToRoot(v, root, buf, op, pgas.ViaConduit)
	case "linear":
		coll.ReduceToRootLinear(v, root, buf, op, pgas.ViaConduit)
	case "2level":
		ReduceToRootTwoLevel(v, root, buf, op)
	default:
		if fn, ok := lookupCustom(KindReduceTo, typedKey[T](name)); ok {
			fn.(ReduceToFn[T])(v, root, buf, op)
			return
		}
		panic(typedMiss[T](KindReduceTo, name))
	}
}

// RunBroadcast executes the named broadcast algorithm from team rank root.
func RunBroadcast[T any](name string, v *team.View, root int, buf []T) {
	switch name {
	case "binomial":
		coll.BcastBinomial(v, root, buf, pgas.ViaConduit)
	case "linear":
		coll.BcastLinear(v, root, buf, pgas.ViaConduit)
	case "scatter-allgather":
		coll.BcastScatterAllgather(v, root, buf, pgas.ViaConduit)
	case "2level":
		BcastTwoLevel(v, root, buf)
	case "nb-binomial", "nb-2level":
		onCoroutine(v, func() { RunBroadcast(name[len("nb-"):], v, root, buf) })
	default:
		if fn, ok := lookupCustom(KindBroadcast, typedKey[T](name)); ok {
			fn.(BroadcastFn[T])(v, root, buf)
			return
		}
		panic(typedMiss[T](KindBroadcast, name))
	}
}

// RunAllgather executes the named allgather algorithm.
func RunAllgather[T any](name string, v *team.View, mine, out []T) {
	switch name {
	case "ring":
		coll.AllgatherRing(v, mine, out, pgas.ViaConduit)
	case "bruck":
		coll.AllgatherBruck(v, mine, out, pgas.ViaConduit)
	case "2level":
		AllgatherTwoLevel(v, mine, out)
	case "nb-ring", "nb-2level":
		onCoroutine(v, func() { RunAllgather(name[len("nb-"):], v, mine, out) })
	default:
		if fn, ok := lookupCustom(KindAllgather, typedKey[T](name)); ok {
			fn.(AllgatherFn[T])(v, mine, out)
			return
		}
		panic(typedMiss[T](KindAllgather, name))
	}
}

// RunScatter executes the named scatter algorithm from team rank root: each
// member receives its len(recv)-element block of the root's send vector.
func RunScatter[T any](name string, v *team.View, root int, send, recv []T) {
	switch name {
	case "linear":
		coll.ScatterLinear(v, root, send, recv, pgas.ViaConduit)
	case "binomial":
		coll.ScatterBinomial(v, root, send, recv, pgas.ViaConduit)
	case "2level":
		ScatterTwoLevel(v, root, send, recv)
	default:
		if fn, ok := lookupCustom(KindScatter, typedKey[T](name)); ok {
			fn.(ScatterFn[T])(v, root, send, recv)
			return
		}
		panic(typedMiss[T](KindScatter, name))
	}
}

// RunGather executes the named gather algorithm: team rank root collects
// every member's send block into recv, ordered by team rank.
func RunGather[T any](name string, v *team.View, root int, send, recv []T) {
	switch name {
	case "linear":
		coll.GatherLinear(v, root, send, recv, pgas.ViaConduit)
	case "binomial":
		coll.GatherBinomial(v, root, send, recv, pgas.ViaConduit)
	case "2level":
		GatherTwoLevel(v, root, send, recv)
	default:
		if fn, ok := lookupCustom(KindGather, typedKey[T](name)); ok {
			fn.(GatherFn[T])(v, root, send, recv)
			return
		}
		panic(typedMiss[T](KindGather, name))
	}
}

// RunAlltoall executes the named personalized all-to-all exchange: send
// block j goes to team rank j, recv block i arrives from team rank i.
func RunAlltoall[T any](name string, v *team.View, send, recv []T) {
	switch name {
	case "pairwise":
		coll.AlltoallPairwise(v, send, recv, pgas.ViaConduit)
	case "bruck":
		coll.AlltoallBruck(v, send, recv, pgas.ViaConduit)
	case "2level":
		AlltoallTwoLevel(v, send, recv)
	default:
		if fn, ok := lookupCustom(KindAlltoall, typedKey[T](name)); ok {
			fn.(AlltoallFn[T])(v, send, recv)
			return
		}
		panic(typedMiss[T](KindAlltoall, name))
	}
}

// RunScan executes the named prefix reduction over team rank order:
// inclusive (buf becomes the reduction over ranks [0, r]) or exclusive
// (over [0, r); rank 0's buf is left unchanged).
func RunScan[T any](name string, v *team.View, buf []T, op coll.Op[T], exclusive bool) {
	switch name {
	case "linear":
		coll.ScanLinear(v, buf, op, exclusive, pgas.ViaConduit)
	case "rd":
		coll.ScanRD(v, buf, op, exclusive, pgas.ViaConduit)
	case "2level":
		ScanTwoLevel(v, buf, op, exclusive)
	default:
		if fn, ok := lookupCustom(KindScan, typedKey[T](name)); ok {
			fn.(ScanFn[T])(v, buf, op, exclusive)
			return
		}
		panic(typedMiss[T](KindScan, name))
	}
}
