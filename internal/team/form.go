package team

import (
	"fmt"
	"sort"

	"cafteams/internal/pgas"
)

// formExchange is the shared rendezvous for one formation episode: each
// member deposits its requested team number and optional new index before
// synchronizing.
type formExchange struct {
	number []int64
	newIdx []int
}

// formEpochs tracks, per member, how many form-team episodes the member has
// completed on a given team; members of the same episode rendezvous under
// the same epoch.
type formEpochs struct{ count []int64 }

// Form performs the CAF "form team (number, team_var)" statement: a
// collective over this team that splits it into sibling subteams, one per
// distinct number. newIndex requests this image's rank within the new team
// (0-based); pass -1 to keep the parent-team relative order (the standard's
// default). Form returns this image's view of its new team.
//
// The exchange is implemented the way a runtime without a-priori knowledge
// must do it: every member ships its (number, newIndex) pair to the team's
// first member and waits for the combined result — a linear gather plus a
// linear release, 2(n−1) small messages, matching the cost of a
// communicator-split style implementation.
func (v *View) Form(number int64, newIndex int) *View {
	if number <= 0 {
		panic(fmt.Sprintf("team: form with non-positive team number %d", number))
	}
	t := v.T
	w := t.w
	n := t.Size()

	ep := pgas.LookupOrCreate(w, fmt.Sprintf("team:formepochs:%d", t.id), func() interface{} {
		return &formEpochs{count: make([]int64, n)}
	}).(*formEpochs)
	ep.count[v.Rank]++
	episode := ep.count[v.Rank]

	exKey := fmt.Sprintf("team:formex:%d:%d", t.id, episode)
	ex := pgas.LookupOrCreate(w, exKey, func() interface{} {
		return &formExchange{number: make([]int64, n), newIdx: make([]int, n)}
	}).(*formExchange)
	ex.number[v.Rank] = number
	ex.newIdx[v.Rank] = newIndex

	// Linear gather at member 0, then linear release: flag slot 0 counts
	// arrivals at the root, slot 1 carries the release stamp. Carry
	// semantics (monotone counters) mean no resets between episodes.
	fl := pgas.NewFlags(w, fmt.Sprintf("team:form:%d", t.id), 2)
	rootGlobal := t.GlobalRank(0)
	if v.Rank == 0 {
		v.Img.WaitFlagGE(fl, rootGlobal, 0, (episode)*int64(n-1))
		for r := 1; r < n; r++ {
			v.Img.NotifySet(fl, t.GlobalRank(r), 1, episode, pgas.ViaAuto)
		}
	} else {
		v.Img.NotifyAdd(fl, rootGlobal, 0, 1, pgas.ViaAuto)
		v.Img.WaitFlagGE(fl, v.Img.Rank(), 1, episode)
	}

	// Everyone now sees the full exchange; compute the member list of the
	// subteam this image joins, deterministically.
	type entry struct {
		parentRank int
		newIdx     int
	}
	var mine []entry
	for r := 0; r < n; r++ {
		if ex.number[r] == number {
			mine = append(mine, entry{parentRank: r, newIdx: ex.newIdx[r]})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		a, b := mine[i], mine[j]
		ai, bi := a.newIdx, b.newIdx
		if ai >= 0 && bi >= 0 && ai != bi {
			return ai < bi
		}
		if (ai >= 0) != (bi >= 0) {
			return ai >= 0 // explicit indices come first
		}
		return a.parentRank < b.parentRank
	})
	members := make([]int, len(mine))
	for i, e := range mine {
		members[i] = t.GlobalRank(e.parentRank)
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
// Unlike Form it deliberately avoids a gather through a root (the root
// might be the dead image): the member list is computed locally from the
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

// FormByNode splits the team into one subteam per physical node — a
// convenience built on Form using the node index as the team number. The
// runtime's hierarchy awareness makes this the natural "intranode team".
func (v *View) FormByNode() *View {
	node := v.T.w.Topology().NodeOf(v.Img.Rank())
	return v.Form(int64(node)+1, -1)
}

// Grid splits the team into row and column teams of a P×Q process grid in
// row-major order (rank = row*q + col), the decomposition the HPL port
// uses. It returns this image's row team and column team views.
func (v *View) Grid(p, q int) (row, col *View, err error) {
	if p*q != v.T.Size() {
		return nil, nil, fmt.Errorf("team: grid %dx%d does not match team size %d", p, q, v.T.Size())
	}
	r := v.Rank / q
	c := v.Rank % q
	row = v.Form(int64(r)+1, c)
	col = v.Form(int64(c)+1, r) // a second formation episode
	return row, col, nil
}
