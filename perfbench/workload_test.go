package main

import (
	"math"
	"testing"
	"time"
)

// TestSplitByDelta checks the delta-range blocks of durable-rw on a
// synthetic timeline: a writer whose acks in range j take j+1 ms and
// whose acks past the crossing take 100 ms, and a reader that sends a
// 0.5 ms read back to back.
func TestSplitByDelta(t *testing.T) {
	ms := int64(time.Millisecond)
	start := time.Unix(0, 0)
	wl := &loopResult{start: start}
	var at int64
	for i := 0; i < durableWrites; i++ {
		ns := 100 * ms
		if i < deltaThreshold {
			ns = int64(i/(deltaThreshold/deltaRanges)+1) * ms
		}
		wl.ops = append(wl.ops, opResult{i: int32(i), ok: true, t: at, ns: ns})
		at += ns
	}
	rl := &loopResult{start: start}
	for i := int64(0); i*ms/2 < at; i++ {
		rl.ops = append(rl.ops, opResult{i: int32(i), ok: true, t: i * ms / 2, ns: ms / 2})
	}
	f := &cycleFigures{}
	f.splitByDelta(wl, rl)
	if len(f.WriteP99) != deltaRanges || len(f.ReadQPS) != deltaRanges+1 {
		t.Fatalf("ranges: %d writer, %d reader", len(f.WriteP99), len(f.ReadQPS))
	}
	for j := 0; j < deltaRanges; j++ {
		// The 100 ms acks made during the fold must not reach the last range.
		if want := float64(j + 1); f.WriteP50[j] != want || f.WriteP99[j] != want {
			t.Errorf("range %d: write p50 %v p99 %v, want %v", j, f.WriteP50[j], f.WriteP99[j], want)
		}
	}
	for j, q := range f.ReadQPS {
		if math.Abs(q-2000) > 2 || f.ReadP50[j] != 0.5 {
			t.Errorf("reader range %d: %v reads/s, p50 %v ms; want 2000, 0.5", j, q, f.ReadP50[j])
		}
	}
}
