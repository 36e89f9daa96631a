package onion

// Ablation benchmarks for the design choices called out in DESIGN.md §4
// that are not already covered by bench_test.go.

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// resortTopN is the strawman alternative to the walk's candidate set: at
// each layer, append every record seen so far and fully re-sort, which
// is what a naive implementation of the paper's Section 3.2 pseudocode
// does if the candidate set C is kept as a plain list. Results are
// identical; only the bookkeeping differs.
func resortTopN(ix *core.Index, weights []float64, n int) []core.Result {
	type sc struct {
		id    uint64
		score float64
	}
	var seen []sc
	emitted := 0
	for k := 0; k < ix.NumLayers() && emitted < n; k++ {
		for _, r := range ix.Layer(k) {
			seen = append(seen, sc{r.ID, geom.Dot(weights, r.Vector)})
		}
		sort.Slice(seen, func(a, b int) bool { return seen[a].score > seen[b].score })
		// One layer guarantees at least one final result per iteration,
		// mirroring the real algorithm's progress.
		emitted++
	}
	if n > len(seen) {
		n = len(seen)
	}
	out := make([]core.Result, n)
	for i := 0; i < n; i++ {
		out[i] = core.Result{ID: seen[i].id, Score: seen[i].score}
	}
	return out
}

// BenchmarkCandidateHeap compares the walk's candidate set (a bounded
// query's sorted run with its score floor) against full re-sorting per
// layer (DESIGN.md ablation #2).
func BenchmarkCandidateHeap(b *testing.B) {
	pts := workload.Points(workload.Gaussian, benchN, 3, 81)
	recs := make([]core.Record, len(pts))
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ws := workload.QueryWeights(64, 3, 82)
	const topn = 500
	// Equivalence check before timing.
	a, _, err := ix.TopN(ws[0], topn)
	if err != nil {
		b.Fatal(err)
	}
	c := resortTopN(ix, ws[0], topn)
	for i := range a {
		if a[i].Score != c[i].Score {
			b.Fatalf("rank %d: heap %v resort %v", i, a[i].Score, c[i].Score)
		}
	}
	b.Run("Heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.TopN(ws[i%len(ws)], topn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Resort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resortTopN(ix, ws[i%len(ws)], topn)
		}
	})
}

// BenchmarkMaxLayersBuild quantifies the build-time cap of
// Options.MaxLayers (catch-all interior layer) against a full peel.
func BenchmarkMaxLayersBuild(b *testing.B) {
	pts := workload.Points(workload.Gaussian, 20_000, 3, 84)
	recs := make([]core.Record, len(pts))
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	b.Run("FullPeel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(recs, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MaxLayers16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(recs, core.Options{MaxLayers: 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
