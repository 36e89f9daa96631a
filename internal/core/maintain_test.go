package core

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/workload"
)

// checkLayerInvariant verifies the optimally-linearly-ordered property
// over many random directions plus the partition invariant, the two
// things every maintenance operation must preserve.
func checkLayerInvariant(t *testing.T, ix *Index, wantLen int) {
	t.Helper()
	total := 0
	for k := 0; k < ix.NumLayers(); k++ {
		if ix.LayerSize(k) == 0 {
			t.Fatalf("empty layer %d", k)
		}
		total += ix.LayerSize(k)
	}
	if total != wantLen || ix.Len() != wantLen {
		t.Fatalf("layers cover %d records, Len()=%d, want %d", total, ix.Len(), wantLen)
	}
	rng := rand.New(rand.NewSource(321))
	w := make([]float64, ix.Dim())
	for trial := 0; trial < 30; trial++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		prev := 0.0
		for k := 0; k < ix.NumLayers(); k++ {
			best := 0.0
			for i, r := range ix.Layer(k) {
				s := geom.Dot(w, r.Vector)
				if i == 0 || s > best {
					best = s
				}
			}
			if k > 0 && best > prev+1e-9 {
				t.Fatalf("trial %d: layer %d max %v exceeds layer %d max %v", trial, k, best, k-1, prev)
			}
			prev = best
		}
	}
}

// checkQueriesMatchOracle compares TopN against brute force on the
// current (possibly mutated) record set.
func checkQueriesMatchOracle(t *testing.T, ix *Index) {
	t.Helper()
	recs := ix.Records()
	pts := make([][]float64, len(recs))
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		pts[i] = r.Vector
		ids[i] = r.ID
	}
	rng := rand.New(rand.NewSource(654))
	w := make([]float64, ix.Dim())
	for trial := 0; trial < 10; trial++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		n := 1 + rng.Intn(20)
		got, _, err := ix.TopN(w, n)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle on the live set (IDs are not 1..n here, so inline).
		type sc struct{ s float64 }
		scores := make([]float64, len(pts))
		for i, p := range pts {
			scores[i] = geom.Dot(w, p)
		}
		for i := 0; i < len(scores); i++ {
			for j := i + 1; j < len(scores); j++ {
				if scores[j] > scores[i] {
					scores[i], scores[j] = scores[j], scores[i]
				}
			}
			if i >= n {
				break
			}
		}
		if len(got) != min(n, len(pts)) {
			t.Fatalf("got %d results, want %d", len(got), min(n, len(pts)))
		}
		for i, r := range got {
			if diff := r.Score - scores[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, r.Score, scores[i])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestInsertOutsideEverything(t *testing.T) {
	pts := workload.Points(workload.Uniform, 200, 2, 1)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A point far outside must join layer 0.
	if err := ix.Insert(Record{ID: 9001, Vector: []float64{10, 10}}); err != nil {
		t.Fatal(err)
	}
	if k, ok := ix.LayerOf(9001); !ok || k != 0 {
		t.Fatalf("far point in layer %d", k)
	}
	checkLayerInvariant(t, ix, 201)
	checkQueriesMatchOracle(t, ix)
}

func TestInsertDeepInside(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 300, 2, 2)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	layersBefore := ix.NumLayers()
	// The centroid region is deep inside: the record lands well past the
	// middle layer (the exact depth depends on where the small innermost
	// hulls happen to sit).
	if err := ix.Insert(Record{ID: 9002, Vector: []float64{0.0001, -0.0002}}); err != nil {
		t.Fatal(err)
	}
	k, _ := ix.LayerOf(9002)
	if k < layersBefore/2 {
		t.Errorf("central point landed at layer %d of %d", k, ix.NumLayers())
	}
	checkLayerInvariant(t, ix, 301)
}

func TestInsertDuplicateID(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 1}, {1, 0}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Record{ID: 1, Vector: []float64{5, 5}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := ix.Insert(Record{ID: 10, Vector: []float64{5}}); err == nil {
		t.Error("wrong dimension accepted")
	}
	checkLayerInvariant(t, ix, 3)
}

func TestInsertManyMatchesRebuild(t *testing.T) {
	// After a stream of inserts, the index must behave exactly like one
	// built from scratch on the final record set (same query answers —
	// layer boundaries may differ only in tie handling).
	base := workload.Points(workload.Gaussian, 150, 3, 3)
	extra := workload.Points(workload.Gaussian, 60, 3, 4)
	ix, err := Build(mkRecords(base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range extra {
		if err := ix.Insert(Record{ID: uint64(1000 + i), Vector: p}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	checkLayerInvariant(t, ix, 210)
	checkQueriesMatchOracle(t, ix)

	all := append(append([][]float64{}, base...), extra...)
	rebuilt, err := Build(mkRecords(all), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.NumLayers(), rebuilt.NumLayers(); got != want {
		t.Errorf("incremental %d layers, rebuild %d (generic-position data should agree)", got, want)
	}
}

func TestDeleteBasic(t *testing.T) {
	pts := workload.Points(workload.Uniform, 250, 2, 5)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a vertex of the outermost layer: inner records must be
	// promoted.
	victim := ix.Layer(0)[0].ID
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.LayerOf(victim); ok {
		t.Error("deleted record still present")
	}
	checkLayerInvariant(t, ix, 249)
	checkQueriesMatchOracle(t, ix)
}

func TestDeleteErrors(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 1}, {1, 0}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(999); err == nil {
		t.Error("deleting unknown ID succeeded")
	}
}

func TestDeleteInnermost(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}, {1, 1}}
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != 2 {
		t.Fatalf("layers = %d", ix.NumLayers())
	}
	if err := ix.Delete(5); err != nil { // the center point
		t.Fatal(err)
	}
	if ix.NumLayers() != 1 {
		t.Errorf("layers after deleting inner singleton = %d, want 1", ix.NumLayers())
	}
	checkLayerInvariant(t, ix, 4)
}

func TestDeleteAllOneByOne(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 60, 2, 6)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	remaining := 60
	for remaining > 0 {
		recs := ix.Records()
		victim := recs[rng.Intn(len(recs))].ID
		if err := ix.Delete(victim); err != nil {
			t.Fatalf("delete %d with %d remaining: %v", victim, remaining, err)
		}
		remaining--
		if ix.Len() != remaining {
			t.Fatalf("Len = %d, want %d", ix.Len(), remaining)
		}
		if remaining > 0 && remaining%10 == 0 {
			checkLayerInvariant(t, ix, remaining)
		}
	}
	if ix.NumLayers() != 0 {
		t.Errorf("empty index has %d layers", ix.NumLayers())
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Points(workload.Uniform, 100, 3, 7)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nextID := uint64(10000)
	for step := 0; step < 120; step++ {
		if rng.Float64() < 0.5 && ix.Len() > 10 {
			recs := ix.Records()
			if err := ix.Delete(recs[rng.Intn(len(recs))].ID); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		} else {
			v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if err := ix.Insert(Record{ID: nextID, Vector: v}); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			nextID++
		}
	}
	checkLayerInvariant(t, ix, ix.Len())
	checkQueriesMatchOracle(t, ix)
}

func TestUpdateMovesRecord(t *testing.T) {
	pts := workload.Points(workload.Uniform, 150, 2, 10)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Move a random record far outside: it must become layer 0.
	if err := ix.Update(42, []float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	if k, ok := ix.LayerOf(42); !ok || k != 0 {
		t.Fatalf("updated record at layer %d,%v", k, ok)
	}
	if v, _ := ix.Vector(42); !geom.Equal(v, []float64{50, 50}) {
		t.Errorf("vector not updated: %v", v)
	}
	if err := ix.Update(99999, []float64{1, 1}); err == nil {
		t.Error("update unknown ID succeeded")
	}
	if err := ix.Update(42, []float64{1}); err == nil {
		t.Error("update with wrong dimension succeeded")
	}
	checkLayerInvariant(t, ix, 150)
}

func TestInsertBatch(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 200, 2, 11)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 40)
	newPts := workload.Points(workload.Gaussian, 40, 2, 12)
	for i, p := range newPts {
		batch[i] = Record{ID: uint64(5000 + i), Vector: p}
	}
	if err := ix.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	checkLayerInvariant(t, ix, 240)
	checkQueriesMatchOracle(t, ix)

	// Errors must leave the index unmodified.
	if err := ix.InsertBatch([]Record{{ID: 5000, Vector: []float64{0, 0}}}); err == nil {
		t.Error("batch with duplicate ID accepted")
	}
	if err := ix.InsertBatch([]Record{{ID: 6000, Vector: []float64{0}}}); err == nil {
		t.Error("batch with bad dimension accepted")
	}
	// A duplicate within the batch itself must be rejected before any
	// alloc: accepting it would double-allocate the ID, surface it twice
	// in rankings, and leave one copy as an undeletable ghost.
	if err := ix.InsertBatch([]Record{
		{ID: 7000, Vector: []float64{1, 1}},
		{ID: 7000, Vector: []float64{2, 2}},
	}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("intra-batch duplicate: err = %v, want ErrDuplicateID", err)
	}
	if _, ok := ix.posOf[7000]; ok {
		t.Error("rejected intra-batch duplicate still allocated")
	}
	checkLayerInvariant(t, ix, 240)
	for _, r := range ix.Records() {
		if r.ID == 7000 {
			t.Fatal("rejected record visible in Records")
		}
	}

	// Batches of 1, 7 and 500 records in 2D–4D, placed outside layer 0,
	// inside layer 3's hull and past the innermost layer. Each must give
	// the layering a fresh Build of the same records gives, leave the
	// layers it cannot reach with their slabs, and locate the whole
	// batch with at most ⌈log₂(L+1)⌉ hulls before its cascade, where a
	// per-record search builds about that many for every record.
	const layers = 8
	placements := []struct {
		name   string
		kept   int     // layers whose hulls contain every new record
		lo, hi float64 // range of the new records' norms
	}{
		{"outside", 0, 1.5, 3},
		{"deep", 4, 0, 0.95 * math.Pow(0.4, 3) / 2},
		{"past-innermost", layers, 0, 0.95 * math.Pow(0.4, layers-1) / 2},
	}
	for dim := 2; dim <= 4; dim++ {
		base := nestedCrossPolytopes(t, dim, layers, int64(dim))
		for _, size := range []int{1, 7, 500} {
			for _, pl := range placements {
				ix := base.Clone()
				slabs := append([]layerSlab(nil), ix.slabs...)
				rng := rand.New(rand.NewSource(int64(100*dim + size)))
				batch := make([]Record, size)
				for i := range batch {
					v := randomDirection(rng, dim)
					r := pl.lo + (pl.hi-pl.lo)*rng.Float64()
					for j := range v {
						v[j] *= r
					}
					batch[i] = Record{ID: uint64(1_000_000 + i), Vector: v}
				}
				first := len(ix.pts) // Build leaves no free position
				probes := -1
				calls := hullCalls(func() {
					if err := ix.InsertBatch(batch); err != nil {
						t.Fatalf("%dD %s ×%d: %v", dim, pl.name, size, err)
					}
				})
				for i, sel := range calls {
					if probes < 0 && slices.ContainsFunc(sel, func(p int) bool { return p >= first }) {
						probes = i
					}
				}
				if probes < 0 {
					t.Fatalf("%dD %s ×%d: no hull held the new records", dim, pl.name, size)
				}
				if bound := bits.Len(uint(layers)); probes > bound {
					t.Errorf("%dD %s ×%d: %d hulls before the cascade, want ≤ %d", dim, pl.name, size, probes, bound)
				}
				for k := 0; k < pl.kept; k++ {
					if &ix.slabs[k].data[0] != &slabs[k].data[0] {
						t.Errorf("%dD %s ×%d: layer %d was re-peeled", dim, pl.name, size, k)
					}
				}
				checkSlabInvariant(t, ix)
				checkFingerprintMatchesBuild(t, ix)
			}
		}
	}
}

// nestedCrossPolytopes builds an index whose layering is known: layer
// k is the 2d vertices ±r_k·e_i of a cross-polytope with r_k = 0.4^k,
// each turned by its own random rotation. A cross-polytope of radius r
// contains the ball of radius r/√d ≥ r/2 for d ≤ 4, so every layer lies
// strictly inside the one before it.
func nestedCrossPolytopes(t *testing.T, dim, layers int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	for k := 0; k < layers; k++ {
		r := math.Pow(0.4, float64(k))
		// Gram–Schmidt on random directions gives the rotation's rows.
		var rows [][]float64
		for len(rows) < dim {
			v := randomDirection(rng, dim)
			for _, u := range rows {
				d := geom.Dot(u, v)
				for j := range v {
					v[j] -= d * u[j]
				}
			}
			n := math.Sqrt(geom.Dot(v, v))
			for j := range v {
				v[j] /= n
			}
			rows = append(rows, v)
		}
		for _, u := range rows {
			for _, sign := range []float64{1, -1} {
				v := make([]float64, dim)
				for j := range v {
					v[j] = sign * r * u[j]
				}
				recs = append(recs, Record{ID: uint64(len(recs) + 1), Vector: v})
			}
		}
	}
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != layers {
		t.Fatalf("%d nested cross-polytopes peeled into %d layers", layers, ix.NumLayers())
	}
	return ix
}

// randomDirection returns a uniformly random unit vector.
func randomDirection(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	n := math.Sqrt(geom.Dot(v, v))
	for j := range v {
		v[j] /= n
	}
	return v
}

// hullCalls runs f with computeHull recording the selection of every
// hull it builds.
func hullCalls(f func()) [][]int {
	var calls [][]int
	defer func() { computeHull = hull.Compute }()
	computeHull = func(pts [][]float64, sel []int, opt hull.Options) (*hull.Hull, error) {
		calls = append(calls, append([]int(nil), sel...))
		return hull.Compute(pts, sel, opt)
	}
	f()
	return calls
}

// checkFingerprintMatchesBuild asserts that maintenance left exactly
// the layering a fresh Build of the same records produces.
func checkFingerprintMatchesBuild(t *testing.T, ix *Index) {
	t.Helper()
	fresh, err := Build(ix.Records(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("layering %v (fingerprint %s), fresh Build %v (%s)", ix.LayerSizes(), got, fresh.LayerSizes(), want)
	}
}

func TestPositionReuseAfterDelete(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {4, 0}, {0, 4}, {4, 4}, {2, 2}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(ix.pts)
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Record{ID: 50, Vector: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}
	if len(ix.pts) != before {
		t.Errorf("freed position not reused: %d slots, was %d", len(ix.pts), before)
	}
	checkLayerInvariant(t, ix, 5)
}
