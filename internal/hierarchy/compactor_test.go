package hierarchy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
)

// randRecords produces n gaussian records with IDs base..base+n-1.
func randRecords(rng *rand.Rand, base uint64, n, d int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		recs[i] = core.Record{ID: base + uint64(i), Vector: v}
	}
	return recs
}

// bruteTopN ranks records by weighted sum on the index's total order
// (score descending, ID ascending), accumulating the dot product in
// attribute order exactly like the scoring kernels, so scores are
// bit-identical to what any index path computes.
func bruteTopN(recs []core.Record, w []float64, n int) []core.Result {
	out := make([]core.Result, 0, len(recs))
	for _, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		out = append(out, core.Result{ID: r.ID, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		return topk.ResultGreater(out[a].Score, out[a].ID, out[b].Score, out[b].ID)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// sameIDScore compares two rankings on (ID, score bits) only: the
// Layer annotation legitimately differs between hierarchical and flat
// layerings (and is -1 for delta-resident records).
func sameIDScore(a, b []core.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("rank %d: (%d, %x) vs (%d, %x)",
				i, a[i].ID, math.Float64bits(a[i].Score), b[i].ID, math.Float64bits(b[i].Score))
		}
	}
	return nil
}

// sortedRecords returns the logical record set in ID order (a
// deterministic input for flat rebuilds).
func sortedRecords(m map[uint64][]float64) []core.Record {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	recs := make([]core.Record, len(ids))
	for i, id := range ids {
		recs[i] = core.Record{ID: id, Vector: m[id]}
	}
	return recs
}

// TestHierarchicalCompactionEquivalence is the every-publish oracle:
// random mutation schedules (insert/delete/update batches) against a
// hierarchically-compacted index, at several delta thresholds and
// worker counts, asserting after every batch — and after every
// compaction — that the hierarchical index, a flat ground-up rebuild,
// and a brute-force scan agree bit-for-bit on (ID, Score), and that
// the compacted layering is a genuine Onion (VerifyOrdering).
func TestHierarchicalCompactionEquivalence(t *testing.T) {
	const d = 3
	for _, workers := range []int{1, 4} {
		for _, threshold := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("workers=%d/threshold=%d", workers, threshold), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*workers + threshold)))
				bopt := core.Options{Seed: 7, Parallelism: workers}

				logical := make(map[uint64][]float64)
				init := randRecords(rng, 1, 300, d)
				for _, r := range init {
					logical[r.ID] = r.Vector
				}
				ix, err := core.Build(init, bopt)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if _, err := Attach(ix, CompactorOptions{Clusters: 7, Build: bopt, Seed: 11}); err != nil {
					t.Fatalf("attach: %v", err)
				}

				nextID := uint64(10_000)
				compactions := 0
				check := func(step string) {
					t.Helper()
					weights := make([][]float64, 0, 4)
					weights = append(weights, []float64{1, 0.5, -0.25})
					for len(weights) < 4 {
						w := make([]float64, d)
						for j := range w {
							w[j] = rng.NormFloat64()
						}
						weights = append(weights, w)
					}
					recs := sortedRecords(logical)
					var flat *core.Index
					if len(recs) > 0 {
						flat, err = core.Build(recs, bopt)
						if err != nil {
							t.Fatalf("%s: flat rebuild: %v", step, err)
						}
					}
					for _, w := range weights {
						for _, n := range []int{1, 5, 25} {
							want := bruteTopN(recs, w, n)
							got, _, err := ix.TopN(w, n)
							if err != nil {
								t.Fatalf("%s: hier TopN: %v", step, err)
							}
							if err := sameIDScore(got, want); err != nil {
								t.Fatalf("%s: hier vs brute (n=%d): %v", step, n, err)
							}
							if flat != nil {
								fres, _, err := flat.TopN(w, n)
								if err != nil {
									t.Fatalf("%s: flat TopN: %v", step, err)
								}
								if err := sameIDScore(got, fres); err != nil {
									t.Fatalf("%s: hier vs flat rebuild (n=%d): %v", step, n, err)
								}
							}
						}
					}
				}

				check("initial")
				for step := 0; step < 25; step++ {
					// One mutation batch: a mix of inserts, deletes, updates.
					ins := randRecords(rng, nextID, rng.Intn(12), d)
					nextID += uint64(len(ins))
					if len(ins) > 0 {
						if err := ix.InsertDelta(ins); err != nil {
							t.Fatalf("step %d: InsertDelta: %v", step, err)
						}
						for _, r := range ins {
							logical[r.ID] = r.Vector
						}
					}
					live := sortedRecords(logical)
					if k := rng.Intn(8); k > 0 && len(live) > k {
						dels := make([]uint64, 0, k)
						seen := make(map[uint64]bool)
						for len(dels) < k {
							id := live[rng.Intn(len(live))].ID
							if !seen[id] {
								seen[id] = true
								dels = append(dels, id)
							}
						}
						if _, err := ix.DeleteDelta(dels, false); err != nil {
							t.Fatalf("step %d: DeleteDelta: %v", step, err)
						}
						for _, id := range dels {
							delete(logical, id)
						}
					}
					if live := sortedRecords(logical); len(live) > 0 && rng.Intn(2) == 0 {
						id := live[rng.Intn(len(live))].ID
						v := make([]float64, d)
						for j := range v {
							v[j] = rng.NormFloat64()
						}
						if err := ix.UpdateDelta(id, v); err != nil {
							t.Fatalf("step %d: UpdateDelta: %v", step, err)
						}
						logical[id] = v
					}
					check(fmt.Sprintf("step %d pre-compact", step))

					if ix.DeltaLen() >= threshold {
						if err := ix.Compact(); err != nil {
							t.Fatalf("step %d: Compact: %v", step, err)
						}
						compactions++
						if ix.HasDelta() {
							t.Fatalf("step %d: delta survived Compact", step)
						}
						if ix.ClusterCompactor() == nil {
							t.Fatalf("step %d: compactor detached by Compact", step)
						}
						if ix.NumLayers() > 0 {
							w := [][]float64{{1, 0, 0}, {0, -1, 0.5}, {0.3, 0.3, 0.3}}
							if err := ix.VerifyOrdering(w, 1e-9); err != nil {
								t.Fatalf("step %d: union layering not an onion: %v", step, err)
							}
						}
						check(fmt.Sprintf("step %d post-compact", step))
					}
				}
				if compactions == 0 {
					t.Fatal("schedule never compacted; thresholds miscalibrated")
				}
			})
		}
	}
}

// TestFoldSharesUnaffectedClusters verifies the copy-on-write
// contract: a fold touching one cluster re-peels exactly that cluster
// and shares every other child by reference with its predecessor.
func TestFoldSharesUnaffectedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := randRecords(rng, 1, 500, 3)
	c, err := NewCompactor(recs, CompactorOptions{Clusters: 8, Seed: 3})
	if err != nil {
		t.Fatalf("NewCompactor: %v", err)
	}
	// One insert lands in exactly one cluster.
	next, layers, err := c.Fold([]core.Record{{ID: 9001, Vector: []float64{0.1, 0.2, 0.3}}}, nil)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	nc := next.(*Compactor)
	if nc.Stats().Refolded != 1 {
		t.Fatalf("Refolded = %d, want 1", nc.Stats().Refolded)
	}
	shared := 0
	for i := range c.children {
		if nc.children[i] == c.children[i] {
			shared++
		}
	}
	if shared != len(c.children)-1 {
		t.Fatalf("shared %d of %d children, want %d", shared, len(c.children), len(c.children)-1)
	}
	if next.Len() != 501 {
		t.Fatalf("Len = %d, want 501", next.Len())
	}
	total := 0
	for _, l := range layers {
		if len(l) == 0 {
			t.Fatal("fold emitted an empty layer")
		}
		total += len(l)
	}
	if total != 501 {
		t.Fatalf("layers hold %d records, want 501", total)
	}
	// The receiver is immutable: its own layer view is unchanged.
	if c.Len() != 500 {
		t.Fatalf("receiver Len mutated to %d", c.Len())
	}
}

// TestFoldToEmptyAndBack drains every record through tombstones (the
// zero-layer edge FromLayers cannot represent) and then refills from
// nothing (every cluster child rebuilt from nil).
func TestFoldToEmptyAndBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 1, 60, 2)
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := Attach(ix, CompactorOptions{Clusters: 4, Seed: 1}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	if _, err := ix.DeleteDelta(ids, false); err != nil {
		t.Fatalf("DeleteDelta: %v", err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("Compact to empty: %v", err)
	}
	if ix.Len() != 0 || ix.NumLayers() != 0 {
		t.Fatalf("after draining: Len=%d NumLayers=%d, want 0/0", ix.Len(), ix.NumLayers())
	}
	if ix.ClusterCompactor() == nil {
		t.Fatal("compactor detached by drain")
	}
	refill := randRecords(rng, 100, 40, 2)
	if err := ix.InsertDelta(refill); err != nil {
		t.Fatalf("InsertDelta: %v", err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("Compact refill: %v", err)
	}
	if ix.Len() != 40 {
		t.Fatalf("after refill: Len=%d, want 40", ix.Len())
	}
	got, _, err := ix.TopN([]float64{1, -1}, 5)
	if err != nil {
		t.Fatalf("TopN: %v", err)
	}
	if err := sameIDScore(got, bruteTopN(refill, []float64{1, -1}, 5)); err != nil {
		t.Fatalf("refilled ranking: %v", err)
	}
}

// TestCompactedCloneHierarchicalLeavesOriginIntact checks the
// background-compaction contract: CompactedClone with a compactor
// attached must not mark the origin shared, must leave its delta
// pending, and the clone must come back delta-free with the successor
// compactor attached.
func TestCompactedCloneHierarchicalLeavesOriginIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randRecords(rng, 1, 120, 3)
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := Attach(ix, CompactorOptions{Clusters: 4, Seed: 2}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := ix.InsertDelta(randRecords(rng, 1000, 10, 3)); err != nil {
		t.Fatalf("InsertDelta: %v", err)
	}
	before := ix.ContentFingerprint()
	cp, err := ix.CompactedClone()
	if err != nil {
		t.Fatalf("CompactedClone: %v", err)
	}
	if cp.HasDelta() {
		t.Fatal("clone still carries a delta")
	}
	if cp.ClusterCompactor() == nil {
		t.Fatal("clone lost the compactor")
	}
	if got := cp.ContentFingerprint(); got != before {
		t.Fatalf("clone content %x, want %x", got, before)
	}
	if !ix.HasDelta() {
		t.Fatal("origin's delta vanished")
	}
	// The origin was not marked shared: delta mutations and its own
	// compaction must still work.
	if err := ix.InsertDelta(randRecords(rng, 2000, 3, 3)); err != nil {
		t.Fatalf("origin InsertDelta after CompactedClone: %v", err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("origin Compact after CompactedClone: %v", err)
	}
	// The clone owns its arrays: legacy structural maintenance is
	// allowed and detaches the compactor.
	if err := cp.Insert(core.Record{ID: 3000, Vector: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("clone Insert: %v", err)
	}
	if cp.ClusterCompactor() != nil {
		t.Fatal("legacy Insert left the compactor attached")
	}
}

// TestAttachGuards exercises the attachment contract.
func TestAttachGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randRecords(rng, 1, 50, 2)
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := ix.InsertDelta(randRecords(rng, 100, 2, 2)); err != nil {
		t.Fatalf("InsertDelta: %v", err)
	}
	if _, err := ix.DeleteDelta([]uint64{recs[0].ID}, false); err != nil {
		t.Fatalf("DeleteDelta: %v", err)
	}
	// A pending delta stays pending: the compactor clusters the base,
	// the tombstoned record included, and the fold applies the delta.
	c, err := Attach(ix, CompactorOptions{Clusters: 2})
	if err != nil {
		t.Fatalf("Attach with pending delta: %v", err)
	}
	if c.Len() != len(recs) {
		t.Fatalf("compactor holds %d records, want the %d base records", c.Len(), len(recs))
	}
	want := ix.ContentFingerprint()
	if err := ix.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if ix.HasDelta() || ix.ClusterCompactor() == nil {
		t.Fatalf("fold left delta %v, compactor %v", ix.HasDelta(), ix.ClusterCompactor())
	}
	if got := ix.ContentFingerprint(); got != want {
		t.Fatalf("hierarchical fold changed content: %s, want %s", got, want)
	}
	// A compactor for a different record set must be refused.
	other, err := NewCompactor(randRecords(rng, 500, 10, 2), CompactorOptions{Clusters: 2})
	if err != nil {
		t.Fatalf("NewCompactor: %v", err)
	}
	if err := ix.SetClusterCompactor(other); err == nil {
		t.Fatal("SetClusterCompactor accepted a mismatched compactor")
	}
	// Detach.
	if err := ix.SetClusterCompactor(nil); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if ix.ClusterCompactor() != nil {
		t.Fatal("detach left a compactor")
	}
}

func TestDefaultClusters(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {4095, 1}, {4096, 1}, {8192, 2},
		{40960, 10}, {4096 * 256, 256}, {10_000_000, 256},
	} {
		if got := DefaultClusters(tc.n); got != tc.want {
			t.Errorf("DefaultClusters(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestNewCompactorRejectsBadInput(t *testing.T) {
	if _, err := NewCompactor(nil, CompactorOptions{}); err == nil {
		t.Error("empty record set accepted")
	}
	if _, err := NewCompactor([]core.Record{{ID: 1}}, CompactorOptions{}); err == nil {
		t.Error("zero-dimensional records accepted")
	}
	mixed := []core.Record{
		{ID: 1, Vector: []float64{1, 2}},
		{ID: 2, Vector: []float64{1, 2, 3}},
	}
	if _, err := NewCompactor(mixed, CompactorOptions{}); err == nil {
		t.Error("mixed-dimension records accepted")
	}
	dup := []core.Record{
		{ID: 7, Vector: []float64{1, 2}},
		{ID: 7, Vector: []float64{3, 4}},
	}
	if _, err := NewCompactor(dup, CompactorOptions{}); err == nil {
		t.Error("duplicate record IDs accepted")
	}
	// More clusters than records clamps rather than failing.
	rng := rand.New(rand.NewSource(8))
	c, err := NewCompactor(randRecords(rng, 1, 3, 2), CompactorOptions{Clusters: 50})
	if err != nil {
		t.Fatalf("tiny corpus: %v", err)
	}
	if c.NumClusters() > 3 {
		t.Errorf("3 records spread over %d clusters", c.NumClusters())
	}
}
