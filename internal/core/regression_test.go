package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hull"
	"repro/internal/workload"
)

// TestTopNNonPositiveN pins the bounded-query contract: asking for the
// best zero (or fewer) records returns no records and no error. Before
// the fix, n <= 0 fell through NewSearcher's limit<=0 convention and
// streamed the ENTIRE index — the opposite of what a bounded one-shot
// caller asked for.
func TestTopNNonPositiveN(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 300, 3, 8)
	w := []float64{1, 2, 3}
	for _, n := range []int{0, -1, -1000} {
		res, st, err := ix.TopN(w, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res) != 0 {
			t.Fatalf("n=%d: got %d results, want 0", n, len(res))
		}
		if st.RecordsEvaluated != 0 {
			t.Fatalf("n=%d: evaluated %d records for an empty answer", n, st.RecordsEvaluated)
		}
	}
}

// TestTopNHugeNPreallocation pins the OOM fix: the result slice
// preallocation is clamped by the live record count, so a hostile or
// buggy n cannot force an n-sized allocation up front. The call must
// succeed and return every record exactly once.
func TestTopNHugeNPreallocation(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 200, 3, 9)
	// Before the clamp, this make([]Result, 0, n) request was ~70 TiB.
	huge := math.MaxInt / 2
	res, _, err := ix.TopN([]float64{1, 1, 1}, huge)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != ix.Len() {
		t.Fatalf("got %d results, want all %d records", len(res), ix.Len())
	}
	seen := make(map[uint64]bool, len(res))
	for i, r := range res {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %d at rank %d", r.ID, i)
		}
		seen[r.ID] = true
		if i > 0 && res[i].Score > res[i-1].Score {
			t.Fatalf("rank order violated at %d", i)
		}
	}
}

// TestNonFiniteWeightsRejected pins the typed-error contract for NaN
// and ±Inf weight components across every query entry point, including
// single-axis-looking vectors such as [NaN, 0, 0].
func TestNonFiniteWeightsRejected(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 200, 3, 10)
	bad := [][]float64{
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{1, 2, math.Inf(-1)},
	}
	for _, w := range bad {
		if _, _, err := ix.TopN(w, 5); !errors.Is(err, ErrNonFiniteWeight) {
			t.Fatalf("TopN(%v): err = %v, want ErrNonFiniteWeight", w, err)
		}
		if s := ix.NewSearcher(w, 5); s != nil {
			t.Fatalf("NewSearcher(%v): got a searcher for non-finite weights", w)
		}
		if err := ValidateWeights(w, 3); !errors.Is(err, ErrNonFiniteWeight) {
			t.Fatalf("ValidateWeights(%v): err = %v", w, err)
		}
	}
	// Dimension mismatch is a distinct failure class, not ErrNonFiniteWeight.
	if err := ValidateWeights([]float64{1, 2}, 3); err == nil || errors.Is(err, ErrNonFiniteWeight) {
		t.Fatalf("dimension mismatch: err = %v", err)
	}
	if _, _, err := ix.TopNBatch([][]float64{{0, 1, 0}, {math.NaN(), 0, 0}}, 5); !errors.Is(err, ErrNonFiniteWeight) {
		t.Fatalf("TopNBatch: err = %v, want ErrNonFiniteWeight", err)
	}
	// Finite queries still work afterwards.
	if _, _, err := ix.TopN([]float64{0, 1, 0}, 5); err != nil {
		t.Fatalf("finite query after rejections: %v", err)
	}
}

// failingHull wraps hull.Compute with a selective fault: calls whose
// selection contains a point equal to target fail. During Update this
// fires only in the re-insert cascade (the deleted record's old layers
// never contain the new vector), so it exercises the worst rollback
// case — delete succeeded, insert failed, record would be lost.
func failingHull(target []float64) func([][]float64, []int, hull.Options) (*hull.Hull, error) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return func(pts [][]float64, sel []int, opt hull.Options) (*hull.Hull, error) {
		for _, i := range sel {
			if same(pts[i], target) {
				return nil, errors.New("injected hull failure")
			}
		}
		return hull.Compute(pts, sel, opt)
	}
}

// TestUpdateRollbackOnInsertFailure pins the atomicity fix: when the
// re-insert leg of Update fails, the record must survive with its
// original vector and the layering must be exactly the pre-update
// state. Before the fix the record was silently lost (delete had
// already committed).
func TestUpdateRollbackOnInsertFailure(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 400, 3, 11)
	const id = 7
	orig, ok := ix.Vector(id)
	if !ok {
		t.Fatal("record 7 missing from build")
	}
	origCopy := append([]float64(nil), orig...)
	before := ix.Clone()

	// A far-outside vector guarantees the re-insert cascade recomputes
	// hulls whose selection includes the new point.
	newVec := []float64{50, 50, 50}
	defer func() { computeHull = hull.Compute }()
	computeHull = failingHull(newVec)

	if err := ix.Update(id, newVec); err == nil {
		t.Fatal("Update succeeded despite injected hull failure")
	}

	if got, ok := ix.Vector(id); !ok {
		t.Fatal("record lost after failed Update — the bug this test pins")
	} else {
		for j := range origCopy {
			if got[j] != origCopy[j] {
				t.Fatalf("vector mutated after failed Update: %v vs %v", got, origCopy)
			}
		}
	}
	if ix.Len() != before.Len() {
		t.Fatalf("Len %d after rollback, want %d", ix.Len(), before.Len())
	}
	layersEqual(t, before, ix, "after rolled-back Update")

	// The index must remain fully functional: restore the real hull and
	// run the same update successfully, then query.
	computeHull = hull.Compute
	if err := ix.Update(id, newVec); err != nil {
		t.Fatalf("Update after restoring hull: %v", err)
	}
	res, _, err := ix.TopN([]float64{1, 1, 1}, 1)
	if err != nil || len(res) != 1 || res[0].ID != id {
		t.Fatalf("post-rollback update not queryable: res=%v err=%v", res, err)
	}
}

// TestUpdateRollbackOnDeleteFailure covers the other leg: the delete
// cascade itself fails (first hull call errors) and the index must be
// byte-identical to its pre-update state.
func TestUpdateRollbackOnDeleteFailure(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 400, 3, 12)
	before := ix.Clone()

	defer func() { computeHull = hull.Compute }()
	computeHull = func([][]float64, []int, hull.Options) (*hull.Hull, error) {
		return nil, errors.New("injected hull failure")
	}
	if err := ix.Update(3, []float64{1, 2, 3}); err == nil {
		t.Fatal("Update succeeded despite injected hull failure")
	}
	computeHull = hull.Compute

	layersEqual(t, before, ix, "after delete-leg rollback")
	if _, ok := ix.Vector(3); !ok {
		t.Fatal("record 3 lost after failed Update")
	}
}

// TestSingleAxisQueriesAfterMaintenance: after a mixed
// Insert/Delete/Update sequence the index still holds one slab per
// layer, and degenerate (single-axis) queries — the paper's §2 case —
// give exactly the ranking a brute-force scan gives. Exercises both
// axis signs and several n, including n > live count.
func TestSingleAxisQueriesAfterMaintenance(t *testing.T) {
	const d = 3
	pts := workload.Points(workload.Gaussian, 500, d, 13)
	ix, err := Build(mkRecords(pts), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	live := make(map[uint64][]float64, len(pts))
	for i, p := range pts {
		live[uint64(i+1)] = p
	}
	randVec := func() []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	// Deterministic victim choice (smallest live ID ≥ a random probe) so
	// a failure replays identically.
	anyLive := func() uint64 {
		probe := uint64(rng.Intn(1600))
		var best uint64
		for id := range live {
			if id >= probe && (best == 0 || id < best) {
				best = id
			}
		}
		if best == 0 {
			for id := range live {
				if best == 0 || id < best {
					best = id
				}
			}
		}
		return best
	}
	for i := 0; i < 60; i++ {
		switch rng.Intn(3) {
		case 0:
			id, v := uint64(1000+i), randVec()
			if err := ix.Insert(Record{ID: id, Vector: v}); err != nil {
				t.Fatal(err)
			}
			live[id] = v
		case 1:
			id := anyLive()
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		case 2:
			id, v := anyLive(), randVec()
			if err := ix.Update(id, v); err != nil {
				t.Fatal(err)
			}
			live[id] = v
		}
	}

	// Oracle corpus from the surviving records.
	var oraclePts [][]float64
	idOf := make(map[int]uint64) // oracle row -> record ID (for mkRecords-free bruteTopN reuse)
	for id, v := range live {
		idOf[len(oraclePts)] = id
		oraclePts = append(oraclePts, v)
	}

	checkSlabInvariant(t, ix)
	for axis := 0; axis < d; axis++ {
		for _, sign := range []float64{3.5, -2} {
			w := make([]float64, d)
			w[axis] = sign
			for _, n := range []int{1, 10, 137, len(live) + 50} {
				got, _, err := ix.TopN(w, n)
				if err != nil {
					t.Fatal(err)
				}
				wantLen := n
				if wantLen > len(live) {
					wantLen = len(live)
				}
				if len(got) != wantLen {
					t.Fatalf("axis %d sign %v n=%d: %d results, want %d", axis, sign, n, len(got), wantLen)
				}
				// Brute force over the live corpus accumulates in the same
				// order as the slab kernels, so scores match to the bit;
				// tie order is unspecified, so IDs are not compared.
				brute := bruteTopNIDs(oraclePts, idOf, w, n)
				for i := range got {
					if math.Float64bits(got[i].Score) != math.Float64bits(brute[i].score) {
						t.Fatalf("axis %d sign %v n=%d rank %d: score %v vs brute %v",
							axis, sign, n, i, got[i].Score, brute[i].score)
					}
				}
			}
		}
	}
}

// bruteTopNIDs is bruteTopN over an arbitrary id mapping (the property
// test's live set has non-contiguous IDs after maintenance).
func bruteTopNIDs(pts [][]float64, idOf map[int]uint64, w []float64, n int) []scored {
	all := make([]scored, len(pts))
	for i, p := range pts {
		var s float64
		for j := range w {
			s += w[j] * p[j]
		}
		all[i] = scored{id: idOf[i], score: s}
	}
	sortScored(all)
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// sortScored sorts descending by score (ties by ID for determinism).
func sortScored(all []scored) {
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].score > all[j-1].score ||
			(all[j].score == all[j-1].score && all[j].id < all[j-1].id)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
}
