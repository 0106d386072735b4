package main

import (
	"repro/internal/catalog"
	"repro/internal/randx"
)

// drawLen is how many repeat-stream draws are generated per run (a power of
// two; the stream wraps after that, which at today's ~1.3k items/s is never).
const drawLen = 1 << 17

// hotZipfS is the exponent of the repeat stream's popularity distribution.
const hotZipfS = 1.1

// Traffic is everything the run's --seed decides: where the walk through the
// unique pool starts and how it strides, which hot items the repeat stream
// draws in which order, and where on the mutation ring the analyst begins.
// It hands out request k deterministically, whichever client asks for it.
type Traffic struct {
	pool, hot []*catalog.Item
	reqItems  int

	start, stride int // unique walk: pool[(start+i*stride) mod len(pool)], stride odd

	// draws[i] is a hot-pool rank, or -1 for "next unique item"; uniqBefore[i]
	// counts the -1s in draws[:i]. Both nil when the stream has no repeats.
	draws      []int32
	uniqBefore []int32
	uniqPerLap int

	RingOffset int
}

// NewTraffic derives one run's traffic from seed. hotShare is the fraction
// of items drawn from the hot pool (0 for all-unique streams).
func NewTraffic(w *World, seed uint64, reqItems int, hotShare float64) *Traffic {
	rng := randx.New(seed).Split("traffic")
	t := &Traffic{
		pool:       w.Pool,
		hot:        w.Hot,
		reqItems:   reqItems,
		start:      rng.Intn(len(w.Pool)),
		stride:     2*rng.Intn(len(w.Pool)/2) + 1, // odd, so the walk has full period over a power-of-two pool
		RingOffset: rng.Intn(len(w.Ring)),
	}
	if hotShare > 0 {
		zipf := randx.NewZipf(rng.Split("zipf"), len(w.Hot), hotZipfS)
		t.draws = make([]int32, drawLen)
		t.uniqBefore = make([]int32, drawLen)
		for i := range t.draws {
			t.uniqBefore[i] = int32(t.uniqPerLap)
			if rng.Bool(hotShare) {
				t.draws[i] = int32(zipf.Next())
			} else {
				t.draws[i] = -1
				t.uniqPerLap++
			}
		}
	}
	return t
}

// unique returns the i-th item of the walk through the unique pool.
func (t *Traffic) unique(i int) *catalog.Item {
	return t.pool[(t.start+i*t.stride)&(len(t.pool)-1)]
}

// Item returns the i-th item of the stream.
func (t *Traffic) Item(i int) *catalog.Item {
	if t.draws == nil {
		return t.unique(i)
	}
	lap, pos := i/drawLen, i&(drawLen-1)
	if r := t.draws[pos]; r >= 0 {
		return t.hot[r]
	}
	return t.unique(lap*t.uniqPerLap + int(t.uniqBefore[pos]))
}

// Request fills buf with the items of request k and returns it.
func (t *Traffic) Request(k int, buf []*catalog.Item) []*catalog.Item {
	buf = buf[:0]
	for j := 0; j < t.reqItems; j++ {
		buf = append(buf, t.Item(k*t.reqItems+j))
	}
	return buf
}
