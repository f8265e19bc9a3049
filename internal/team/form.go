package team

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cafteams/internal/pgas"
)

// formEpochs tracks, per member, how many form-team episodes the member has
// completed on a given team; the episode number keys that episode's teams.
type formEpochs struct{ count []int64 }

// Split is the local half of the CAF "form team (number, team_var)"
// statement (core.Form exchanges the pairs): pairs holds every member's
// (number, newIndex) in team rank order, two int64 per member, the same on
// every member. Split returns this image's view of its new team: the members
// that passed its number, those that requested an index (0-based) first in
// index order, then the rest in parent-team order (the standard's default,
// newIndex -1). The siblings of one episode each share one Team object.
func (v *View) Split(pairs []int64) *View {
	t := v.T
	w := t.w
	n := t.Size()

	ep := pgas.LookupOrCreate(w, fmt.Sprintf("team:formepochs:%d", t.id), func() interface{} {
		return &formEpochs{count: make([]int64, n)}
	}).(*formEpochs)
	ep.count[v.Rank]++
	episode := ep.count[v.Rank]

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

	teamKey := fmt.Sprintf("team:formed:%d:%d:%d", t.id, episode, number)
	nt := pgas.LookupOrCreate(w, teamKey, func() interface{} {
		return build(w, nextTeamID(w), number, t, members)
	}).(*Team)
	return &View{T: nt, Rank: nt.rankOf[v.Img.Rank()], Img: v.Img}
}

// shrinkEpochs counts, per member, how many survivor-formation episodes the
// member has completed on a given team, so repeated shrinks rendezvous
// correctly (ULFM allows a shrunken communicator to shrink again).
type shrinkEpochs struct{ count []int64 }

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
// STAT_FAILED_IMAGE again and the team can be shrunk again. The fresh team
// id means fresh collective flag and scratch state, so a collective aborted
// mid-episode on the old team cannot pollute its re-run on the new one.
//
// Calling FormSurvivors from an image that is itself announced failed
// panics: a failed image has no place in the survivor team.
func (v *View) FormSurvivors() *View {
	t := v.T
	w := t.w

	ep := pgas.LookupOrCreate(w, fmt.Sprintf("team:shrinkepochs:%d", t.id), func() interface{} {
		return &shrinkEpochs{count: make([]int64, t.Size())}
	}).(*shrinkEpochs)
	ep.count[v.Rank]++
	episode := ep.count[v.Rank]

	teamKey := fmt.Sprintf("team:shrunk:%d:%d", t.id, episode)
	sh := pgas.LookupOrCreate(w, teamKey, func() interface{} {
		// Epoch before set: the snapshot then covers at least every
		// announcement up to the epoch each survivor acknowledges below.
		epoch := w.FailureEpoch()
		failed := make(map[int]bool)
		for _, g := range w.FailedImages() {
			failed[g] = true
		}
		var members []int
		for _, g := range t.members {
			if !failed[g] {
				members = append(members, g)
			}
		}
		return &shrunkTeam{t: build(w, nextTeamID(w), t.number, t, members), epoch: epoch}
	}).(*shrunkTeam)
	nt := sh.t
	rank, ok := nt.rankOf[v.Img.Rank()]
	if !ok {
		panic(fmt.Sprintf("team: failed image %d called FormSurvivors", v.Img.Rank()))
	}
	// The new team excludes every failure announced up to the snapshot
	// epoch; acknowledge them so collectives on it are not interrupted on
	// their account. Failures announced after the snapshot stay
	// unacknowledged — they may be members of the new team, and the next
	// collective on it will raise STAT_FAILED_IMAGE for another shrink.
	v.Img.AckFailuresUpTo(sh.epoch)
	return &View{T: nt, Rank: rank, Img: v.Img}
}

// shrunkTeam pairs a survivor team with the failure epoch its member list
// was computed at.
type shrunkTeam struct {
	t     *Team
	epoch int64
}
