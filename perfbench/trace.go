package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds on the recording process's monotonic clock, so spans of
// one process nest by time; a span in the server process names its
// client-side parent through Req, the request ID both sides share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index into the same span list, -1 for a root
	Req    uint64 `json:"req"`
	// N carries a count recorded at the same boundary (records
	// evaluated by a layer, delta length seen by a walk).
	N int64 `json:"n,omitempty"`
	// K is the 0-based onion layer of a core.layer span.
	K int `json:"k,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// now returns the log's clock reading in nanoseconds.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add appends s and returns its index, for use as a Parent.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// addTree appends spans whose Parent fields index into tree itself.
func (l *spanLog) addTree(tree []span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.spans)
	for _, s := range tree {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (overlapping children count once,
// and only the part inside the parent counts).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// clone copies xs, for a quantile that must not reorder the original.
func clone(xs []float64) []float64 { return append([]float64(nil), xs...) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
