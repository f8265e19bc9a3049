package main

import (
	"math"
	"sync"
)

// payload holds the seeded inputs and the serial references of the
// collective cells for one (team size, elems, episodes) triple. Values are
// small integers, so a float64 sum over any number of ranks the benchmark
// runs is exact in every association order and a bitwise comparison against
// the serial reference is meaningful for every algorithm.
//
// A payload is built once, before any rep is timed, and shared read-only by
// every cell of that shape: the timed region only copies from it and
// compares against it.
type payload struct {
	n, elems, eps int
	seed          int64

	in     [][]float64 // [ep] flat n*elems: rank r's input is in[ep][r*elems:(r+1)*elems]
	sum    [][]float64 // [ep] elems: element-wise sum over all ranks
	prefix [][]float64 // [ep] flat n*elems: inclusive prefix sums by rank

	a2aOnce sync.Once
	a2aSend [][]float64 // [ep] flat n*n*elems: rank r's send vector is [r*n*elems:(r+1)*n*elems]
	a2aRecv [][]float64 // [ep] same layout: what rank r must receive
}

// inputValue is the pure function every input element is drawn from: an
// integer in [-100, 100] keyed by seed, a salt, rank, episode and index.
func inputValue(seed int64, salt, rank, ep, i int) float64 {
	x := seed*7919 + int64(salt)*9973 + int64(rank)*31 + int64(ep)*7 + int64(i)
	x %= 201
	if x < 0 {
		x += 201
	}
	return float64(x - 100)
}

func newPayload(seed int64, n, elems, eps int) *payload {
	p := &payload{n: n, elems: elems, eps: eps, seed: seed}
	for ep := 0; ep < eps; ep++ {
		in := make([]float64, n*elems)
		pre := make([]float64, n*elems)
		sum := make([]float64, elems)
		for r := 0; r < n; r++ {
			row := in[r*elems : (r+1)*elems]
			for i := range row {
				row[i] = inputValue(seed, 0, r, ep, i)
				sum[i] += row[i]
			}
			copy(pre[r*elems:(r+1)*elems], sum)
		}
		p.in = append(p.in, in)
		p.prefix = append(p.prefix, pre)
		p.sum = append(p.sum, sum)
	}
	return p
}

func (p *payload) input(ep, rank int) []float64 {
	return p.in[ep][rank*p.elems : (rank+1)*p.elems]
}

// scanRef is rank's expected buffer after a prefix sum: inclusive over
// ranks [0, rank], exclusive over [0, rank) with rank 0 left unchanged.
func (p *payload) scanRef(ep, rank int, exclusive bool) []float64 {
	switch {
	case !exclusive:
		return p.prefix[ep][rank*p.elems : (rank+1)*p.elems]
	case rank == 0:
		return p.input(ep, 0)
	default:
		return p.prefix[ep][(rank-1)*p.elems : rank*p.elems]
	}
}

// alltoall builds the personalized-exchange vectors on first use (only the
// alltoall cells need n*n*elems of them): block src→dst is salted by the
// destination so every pair exchanges a distinct vector.
func (p *payload) alltoall() {
	p.a2aOnce.Do(func() {
		n, e := p.n, p.elems
		for ep := 0; ep < p.eps; ep++ {
			send := make([]float64, n*n*e)
			recv := make([]float64, n*n*e)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					blk := send[(src*n+dst)*e : (src*n+dst+1)*e]
					for i := range blk {
						blk[i] = inputValue(p.seed, 1+dst, src, ep, i)
					}
					copy(recv[(dst*n+src)*e:(dst*n+src+1)*e], blk)
				}
			}
			p.a2aSend = append(p.a2aSend, send)
			p.a2aRecv = append(p.a2aRecv, recv)
		}
	})
}

// same reports whether got equals want bit for bit.
func same(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// payloads caches one payload per shape for the life of the process; only
// the driver goroutine asks for them.
type payloads struct {
	seed int64
	m    map[[3]int]*payload
}

func (ps *payloads) get(n, elems, eps int) *payload {
	k := [3]int{n, elems, eps}
	if p, ok := ps.m[k]; ok {
		return p
	}
	if ps.m == nil {
		ps.m = map[[3]int]*payload{}
	}
	p := newPayload(ps.seed, n, elems, eps)
	ps.m[k] = p
	return p
}
