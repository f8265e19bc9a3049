package core

import (
	"fmt"

	"cafteams/internal/team"
)

// Form performs the CAF "form team (number, team_var)" statement: a
// collective over v's team that splits it into sibling subteams, one per
// distinct number. newIndex requests this image's rank within the new team
// (0-based); pass -1 to keep the parent-team relative order (the standard's
// default). Form returns this image's view of its new team.
//
// The exchange is MPI_Comm_split's: one AllgatherTwoLevel of every member's
// (number, newIndex) as two int64, after which each member splits the team
// locally (team.View.Split).
func Form(v *team.View, number int64, newIndex int) *team.View {
	if number <= 0 {
		panic(fmt.Sprintf("team: form with non-positive team number %d", number))
	}
	pairs := make([]int64, 2*v.NumImages())
	AllgatherTwoLevel(v, []int64{number, int64(newIndex)}, pairs)
	return v.Split(pairs)
}

// FormByNode splits v's team into one subteam per physical node: Form with
// the node index as the team number. The runtime's hierarchy awareness makes
// this the natural "intranode team".
func FormByNode(v *team.View) *team.View {
	return Form(v, int64(v.Img.Node())+1, -1)
}

// Grid splits v's team into row and column teams of a P×Q process grid in
// row-major order (rank = row*q + col), the decomposition the HPL port
// uses: two formation episodes. It returns this image's row and column team
// views.
func Grid(v *team.View, p, q int) (row, col *team.View, err error) {
	if p*q != v.T.Size() {
		return nil, nil, fmt.Errorf("team: grid %dx%d does not match team size %d", p, q, v.T.Size())
	}
	row = Form(v, int64(v.Rank/q)+1, v.Rank%q)
	col = Form(v, int64(v.Rank%q)+1, v.Rank/q)
	return row, col, nil
}
