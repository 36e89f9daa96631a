package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle is a brute-force ranking over the benchmark's own model of
// the corpus. It fixes the contract every answer must meet: order by
// score descending, then ID ascending, and every score bit-identical to
// the sequential dot product sum_j w[j]*x[j] accumulated from zero,
// which is how the index scores records.

// ranked is one answer of a ranking: the record ID and its score.
type ranked struct {
	ID    uint64
	Score float64
}

func score(w, x []float64) float64 {
	var s float64
	for j, wj := range w {
		s += wj * x[j]
	}
	return s
}

// before reports whether a ranks strictly ahead of b in the total order.
func before(a, b ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// model is the acked state: live records by ID.
type model struct{ live map[uint64][]float64 }

func newModel(recs []record) *model {
	m := &model{live: make(map[uint64][]float64, len(recs))}
	for _, r := range recs {
		m.live[r.ID] = r.Vec
	}
	return m
}

// apply records one acked mutation.
func (m *model) apply(mu mutation) {
	if mu.Vec != nil {
		m.live[mu.ID] = mu.Vec
	} else {
		delete(m.live, mu.ID)
	}
}

// topN ranks the live records and keeps the best n (n <= 0: all).
func (m *model) topN(w []float64, n int) []ranked {
	if n <= 0 || n > len(m.live) {
		all := make([]ranked, 0, len(m.live))
		for id, x := range m.live {
			all = append(all, ranked{id, score(w, x)})
		}
		sort.Slice(all, func(a, b int) bool { return before(all[a], all[b]) })
		return all
	}
	// Bounded insertion: keep best n in order; cheap for small n.
	best := make([]ranked, 0, n+1)
	for id, x := range m.live {
		c := ranked{id, score(w, x)}
		if len(best) == n && !before(c, best[n-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return before(c, best[i]) })
		best = append(best, ranked{})
		copy(best[i+1:], best[i:])
		best[i] = c
		if len(best) > n {
			best = best[:n]
		}
	}
	return best
}

// checkRanking compares got against want entry by entry: same length,
// same IDs in the same order, bit-identical scores.
func checkRanking(got, want []ranked) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: got id %d score %v, want id %d score %v", i, g.ID, g.Score, w.ID, w.Score)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	return nil
}
