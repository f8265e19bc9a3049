package team

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// formKey keys a team's formation state in its registry: with episode 0, how
// many episodes each member has begun; else the team numbered number that
// the episode formed. Split and FormSurvivors count their episodes apart.
type formKey struct {
	survivors       bool
	episode, number int64
}

// formed is a team one episode formed. It stays in its parent's registry
// until the last of its members has attached, and then lives in its members'
// views alone.
type formed struct {
	t        *Team
	epoch    int64 // FormSurvivors: the failure epoch of its member list
	attached atomic.Int64
}

// form returns this image's view of the team numbered number that its next
// episode of the kind forms on v's team, which mk builds for the first member
// to arrive.
func (v *View) form(survivors bool, number int64, mk func() *formed) (*View, *formed) {
	reg := &v.T.reg
	count := reg.LookupOrCreate(formKey{survivors: survivors}, func() any { return make([]int64, v.T.Size()) }).([]int64)
	count[v.Rank]++
	key := formKey{survivors, count[v.Rank], number}
	f := reg.LookupOrCreate(key, func() any { return mk() }).(*formed)
	rank, ok := f.t.rankOf[v.Img.Rank()]
	if !ok { // only a survivor team leaves a caller out
		panic(fmt.Sprintf("team: failed image %d called FormSurvivors", v.Img.Rank()))
	}
	if f.attached.Add(1) == int64(f.t.Size()) {
		reg.Delete(key)
	}
	return &View{T: f.t, Rank: rank, Img: v.Img}, f
}

// Split is the local half of the CAF "form team (number, team_var)"
// statement (core.Form exchanges the pairs): pairs holds every member's
// (number, newIndex) in team rank order, two int64 per member, the same on
// every member. Split returns this image's view of its new team: the members
// that passed its number, those that requested an index (0-based) first in
// index order, then the rest in parent-team order (the standard's default,
// newIndex -1). The siblings of one episode each share one Team object.
func (v *View) Split(pairs []int64) *View {
	t := v.T
	n := t.Size()
	number := pairs[2*v.Rank]
	var members []int // parent ranks, in parent order
	for r := range n {
		if pairs[2*r] == number {
			members = append(members, r)
		}
	}
	index := func(r int) int64 { // an explicit index sorts before the default
		if i := pairs[2*r+1]; i >= 0 {
			return i
		}
		return math.MaxInt64
	}
	slices.SortStableFunc(members, func(a, b int) int { return cmp.Compare(index(a), index(b)) })
	for i, r := range members {
		members[i] = t.GlobalRank(r)
	}

	nv, _ := v.form(false, number, func() *formed {
		return &formed{t: build(t.w, nextTeamID(t.w), number, t, members)}
	})
	return nv
}

// FormSurvivors is the failed-image form of form team: it returns this
// image's view of a new team containing the current team's members minus
// every image the world has announced as failed — the Fortran 2018 "form
// team excluding failed images" / MPI ULFM MPIX_Comm_shrink operation.
//
// Unlike core.Form it deliberately exchanges nothing (an exchange would
// wait on the dead image): the member list is computed locally from the
// world's announced-failed set, which every survivor observes identically
// once the failure that triggered recovery has been announced. The first
// survivor to arrive fixes the epoch's snapshot; if yet another image fails
// while survivors trickle in, later collectives on the shrunken team raise
// STAT_FAILED_IMAGE again and the team can be shrunk again. A fresh team
// has fresh collective flags and scratch (they are its own), so a collective
// aborted mid-episode on the old team cannot pollute its re-run on the new
// one.
//
// Calling FormSurvivors from an image that is itself announced failed
// panics: a failed image has no place in the survivor team.
func (v *View) FormSurvivors() *View {
	t := v.T
	w := t.w
	nv, f := v.form(true, t.number, func() *formed {
		// Epoch before set: the snapshot then covers at least every
		// announcement up to the epoch each survivor acknowledges below.
		epoch, failed := w.FailureEpoch(), w.FailedImages() // ascending
		members := slices.DeleteFunc(slices.Clone(t.members), func(g int) bool {
			_, dead := slices.BinarySearch(failed, g)
			return dead
		})
		return &formed{t: build(w, nextTeamID(w), t.number, t, members), epoch: epoch}
	})
	// The new team excludes every failure announced up to the snapshot
	// epoch; acknowledge them so collectives on it are not interrupted on
	// their account. Failures announced after the snapshot stay
	// unacknowledged — they may be members of the new team, and the next
	// collective on it will raise STAT_FAILED_IMAGE for another shrink.
	v.Img.AckFailuresUpTo(f.epoch)
	return nv
}
