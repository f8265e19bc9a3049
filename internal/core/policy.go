package core

import (
	"fmt"
	"slices"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Level selects how much of the memory hierarchy the runtime exploits.
type Level int

const (
	// LevelFlat ignores placement entirely — the paper's baseline
	// ("one-level") runtime.
	LevelFlat Level = iota
	// LevelTwo applies the paper's two-level (node-aware) methodology.
	LevelTwo
	// LevelThree additionally splits nodes by socket (the future-work
	// extension).
	LevelThree
	// LevelAuto picks per team: flat when the team has at most one image
	// per node (the two-level algorithms degenerate to flat there
	// anyway), two-level otherwise.
	LevelAuto
)

func (l Level) String() string {
	switch l {
	case LevelFlat:
		return "1level"
	case LevelTwo:
		return "2level"
	case LevelThree:
		return "3level"
	case LevelAuto:
		return "auto"
	default:
		return "level?"
	}
}

// Tuning selects, per collective kind (the index), which registered
// algorithm the runtime dispatches to. The zero value ("" everywhere) defers
// entirely to the hierarchy level — the paper's methodology. An entry set to
// a name from Algorithms(kind) forces that algorithm for every call; an entry
// set to AlgAuto ("auto") picks per call from the measured decision table
// (autotable.go): keyed by how the team sits on the machine — images per
// node, sockets they occupy, nodes — and the payload bytes.
type Tuning [numKinds]string

// For returns the tuning entry for kind k.
func (t Tuning) For(k Kind) string {
	if !k.valid() {
		return ""
	}
	return t[k]
}

// With returns a copy of t with kind k's algorithm set to name.
func (t Tuning) With(k Kind, name string) Tuning {
	if k.valid() {
		t[k] = name
	}
	return t
}

// AllAuto is the Tuning that reads every collective kind's algorithm from
// the decision table.
func AllAuto() Tuning {
	var t Tuning
	for k := range t {
		t[k] = AlgAuto
	}
	return t
}

// Validate checks every non-empty entry against the registry.
func (t Tuning) Validate() error {
	for k, name := range t {
		if !HasAlgorithm(Kind(k), name) {
			return fmt.Errorf("tuning: unknown algorithm %s/%s (registered: %v)", Kind(k), name, Algorithms(Kind(k)))
		}
	}
	return nil
}

// Policy dispatches team collectives through the algorithm registry. Level
// picks the hierarchy methodology (the paper's contribution); Tuning
// overrides individual kinds with explicitly named algorithms or the
// decision table. The zero value is the flat runtime.
type Policy struct {
	Level  Level
	Tuning Tuning
}

// effective resolves LevelAuto for a concrete team.
func (p *Policy) effective(v *team.View) Level {
	if p.Level != LevelAuto {
		return p.Level
	}
	if v.T.MaxNodeGroup() > 1 {
		return LevelTwo
	}
	return LevelFlat
}

// AlgFor resolves the algorithm name for kind k on team v with a payload of
// elems elements of elemSize bytes each (elems < 0: no payload, a barrier). An
// explicit tuning entry wins. Otherwise the hierarchy level selects among
// kindTable's columns — the paper's methodology, and all there is to the zero
// Tuning — except that an "auto" entry whose level leaves the choice open
// reads the decision table: every registered algorithm under LevelAuto, the
// hierarchy-oblivious ones under LevelFlat.
func (p *Policy) AlgFor(k Kind, v *team.View, elems, elemSize int) string {
	name := p.Tuning.For(k)
	if name != "" && name != AlgAuto {
		return name
	}
	if name == "" {
		return LevelChoice(k, p.effective(v))
	}
	// An explicit two- or three-level policy keeps its level's choice.
	pick := LevelChoice(k, p.Level)
	if p.Level == LevelAuto || p.Level == LevelFlat {
		row, _ := AutoPick(k, AutoKeyOf(v, max(elems, 0)*elemSize))
		pick = row.Alg
		if p.Level == LevelFlat {
			pick = row.Flat
		}
	}
	v.Img.World().Stats().AutoPick(int(k), slices.Index(kindTable[k].builtins, pick))
	return pick
}

// Barrier synchronizes the team (CAF sync team / sync all within the
// team).
func (p *Policy) Barrier(v *team.View) {
	RunBarrier(p.AlgFor(KindBarrier, v, -1, 0), v)
}

// PolicyAllreduce performs the team all-to-all reduction (co_sum and
// friends) for any element type. (A package function because Go methods
// cannot be generic.)
func PolicyAllreduce[T any](p Policy, v *team.View, buf []T, op coll.Op[T]) {
	RunAllreduce(p.AlgFor(KindAllreduce, v, len(buf), pgas.ElemSize[T]()), v, buf, op)
}

// PolicyAllgather concatenates every member's mine vector into out (ordered
// by team rank) on every member.
func PolicyAllgather[T any](p Policy, v *team.View, mine, out []T) {
	RunAllgather(p.AlgFor(KindAllgather, v, len(mine), pgas.ElemSize[T]()), v, mine, out)
}

// PolicyReduceTo performs the team reduce-to-one (the co_sum(result_image=...)
// family): only team rank root receives the combined result.
func PolicyReduceTo[T any](p Policy, v *team.View, root int, buf []T, op coll.Op[T]) {
	RunReduceTo(p.AlgFor(KindReduceTo, v, len(buf), pgas.ElemSize[T]()), v, root, buf, op)
}

// PolicyBroadcast performs the team one-to-all broadcast (co_broadcast)
// from team rank root.
func PolicyBroadcast[T any](p Policy, v *team.View, root int, buf []T) {
	RunBroadcast(p.AlgFor(KindBroadcast, v, len(buf), pgas.ElemSize[T]()), v, root, buf)
}

// PolicyScatter distributes per-member blocks from team rank root: each
// member receives its len(recv)-element block of the root's send vector
// (significant only at the root, NumImages()*len(recv) elements there).
func PolicyScatter[T any](p Policy, v *team.View, root int, send, recv []T) {
	RunScatter(p.AlgFor(KindScatter, v, len(recv), pgas.ElemSize[T]()), v, root, send, recv)
}

// PolicyGather collects every member's send block into recv on team rank
// root only, ordered by team rank (recv significant only at the root).
func PolicyGather[T any](p Policy, v *team.View, root int, send, recv []T) {
	RunGather(p.AlgFor(KindGather, v, len(send), pgas.ElemSize[T]()), v, root, send, recv)
}

// PolicyAlltoall performs the personalized all-to-all exchange: send block j
// goes to team rank j, recv block i arrives from team rank i.
func PolicyAlltoall[T any](p Policy, v *team.View, send, recv []T) {
	elems := len(send)
	if n := v.NumImages(); n > 0 {
		elems = len(send) / n
	}
	RunAlltoall(p.AlgFor(KindAlltoall, v, elems, pgas.ElemSize[T]()), v, send, recv)
}

// PolicyScan computes the prefix reduction over team rank order: inclusive
// (buf becomes the reduction over ranks [0, r]) or exclusive (over [0, r);
// rank 0's buf is left unchanged).
func PolicyScan[T any](p Policy, v *team.View, buf []T, op coll.Op[T], exclusive bool) {
	RunScan(p.AlgFor(KindScan, v, len(buf), pgas.ElemSize[T]()), v, buf, op, exclusive)
}
