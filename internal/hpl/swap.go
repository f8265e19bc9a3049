package hpl

import (
	"fmt"

	"cafteams/internal/pgas"
)

// swapper implements distributed row interchanges: the two images owning the
// global rows exchange their local row segments through a dedicated landing
// coarray, with per-pair sequence counters and parity double-buffering.
// Both sides put first and wait second, so the exchange cannot deadlock;
// per-pair sequencing makes interleaved swaps with different partners safe.
type swapper struct {
	w      *pgas.World
	im     *pgas.Image
	co     *pgas.Coarray[float64]
	fl     *pgas.Flags
	segCap int
	sent   map[int]int64
	rcvd   map[int]int64
}

func newSwapper(w *pgas.World, im *pgas.Image, d dist) *swapper {
	segCap := ((d.numBlocks()+d.q-1)/d.q + 1) * d.nb
	nimg := w.NumImages()
	return &swapper{
		w:      w,
		im:     im,
		co:     pgas.NewCoarray[float64](w, "hpl:swap", nimg*2*segCap),
		fl:     pgas.NewFlags(w, "hpl:swap", nimg),
		segCap: segCap,
		sent:   make(map[int]int64),
		rcvd:   make(map[int]int64),
	}
}

// exchange swaps out/in with the partner image (global rank). len(out) must
// equal len(in), and both sides must call exchange with matching lengths.
func (s *swapper) exchange(partner int, out, in []float64) {
	if len(out) > s.segCap {
		panic(fmt.Sprintf("hpl: swap segment %d exceeds capacity %d", len(out), s.segCap))
	}
	me := s.im.Rank()
	seq := s.sent[partner]
	s.sent[partner] = seq + 1
	parity := int(seq % 2)
	region := (me*2 + parity) * s.segCap
	pgas.PutThenNotify(s.im, s.co, partner, region, out, s.fl, me, 1, pgas.ViaAuto)
	s.rcvd[partner]++
	s.im.WaitFlagGE(s.fl, me, partner, s.rcvd[partner])
	myRegion := (partner*2 + parity) * s.segCap
	copy(in, pgas.Local(s.co, s.im)[myRegion:myRegion+len(in)])
	s.im.MemWork(8 * len(in))
}

// swapRows exchanges global rows gr1 and gr2 across this image's local
// columns [c0, c1) (local column indexes). Images owning neither row return
// immediately.
func (s *swapper) swapRows(eng Engine, d dist, gr1, gr2, c0, c1 int, bufA, bufB []float64) {
	if gr1 != gr2 {
		s.swap(eng, d, gr1, gr2, [][2]int{{c0, c1}}, bufA, bufB)
	}
}

// swapRowsExcluding swaps rows gr1 ≠ gr2 across all local columns except
// [e0, e1) (pass -1, -1 for no exclusion). Used for the trailing/left
// interchange where the panel block was already swapped during
// factorization.
func (s *swapper) swapRowsExcluding(eng Engine, d dist, gr1, gr2, e0, e1 int, bufA, bufB []float64) {
	spans := [][2]int{{0, d.localCols()}}
	if e0 >= 0 {
		spans = [][2]int{{0, e0}, {e1, d.localCols()}}
	}
	s.swap(eng, d, gr1, gr2, spans, bufA, bufB)
}

// swap exchanges global rows gr1 ≠ gr2 across the local column spans [c0, c1),
// packed back to back so a remote exchange is one message (HPL swaps whole
// rows). Images owning neither row return immediately.
func (s *swapper) swap(eng Engine, d dist, gr1, gr2 int, spans [][2]int, bufA, bufB []float64) {
	o1, o2 := d.ownerRow(gr1/d.nb), d.ownerRow(gr2/d.nb)
	width := 0
	for _, sp := range spans {
		width += sp[1] - sp[0]
	}
	if d.pr != o1 && d.pr != o2 || width <= 0 {
		return
	}
	// move packs local row lr's spans into buf, or unpacks buf into them.
	move := func(lr int, buf []float64, unpack bool) {
		at := 0
		for _, sp := range spans {
			w := sp[1] - sp[0]
			if unpack {
				eng.UnpackRow(lr, sp[0], sp[1], buf[at:at+w])
			} else {
				eng.PackRow(lr, sp[0], sp[1], buf[at:at+w])
			}
			at += w
		}
	}
	a, b := bufA[:width], bufB[:width]
	if o1 == o2 { // both rows local: a plain swap
		lr1, lr2 := d.localRowOf(gr1), d.localRowOf(gr2)
		move(lr1, a, false)
		move(lr2, b, false)
		move(lr1, b, true)
		move(lr2, a, true)
		s.im.MemWork(16 * width)
		return
	}
	mine, other := gr1, o2
	if d.pr == o2 {
		mine, other = gr2, o1
	}
	lr := d.localRowOf(mine)
	move(lr, a, false)
	s.exchange(gridGlobalRank(d, other, d.pc), a, b)
	move(lr, b, true)
}

// gridGlobalRank maps grid coordinates to the global image rank (row-major
// grid as formed by team.Grid).
func gridGlobalRank(d dist, pr, pc int) int { return pr*d.q + pc }
