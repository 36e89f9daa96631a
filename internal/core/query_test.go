package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestTopNMatchesLinearScan is the central correctness property: the
// Onion query must return exactly the scores a full sort would.
func TestTopNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		dist workload.Distribution
		n, d int
	}{
		{workload.Gaussian, 800, 2},
		{workload.Gaussian, 800, 3},
		{workload.Gaussian, 500, 4},
		{workload.Uniform, 800, 3},
		{workload.Exponential, 500, 3},
		{workload.Ball, 500, 2},
		{workload.Sphere, 300, 3},
	} {
		pts := workload.Points(tc.dist, tc.n, tc.d, int64(tc.n+tc.d))
		ix, err := Build(mkRecords(pts), Options{})
		if err != nil {
			t.Fatalf("%v %dD: %v", tc.dist, tc.d, err)
		}
		for trial := 0; trial < 20; trial++ {
			w := make([]float64, tc.d)
			for j := range w {
				w[j] = rng.NormFloat64() // negative weights exercise minimization directions
			}
			for _, n := range []int{1, 3, 10, 57} {
				got, stats, err := ix.TopN(w, n)
				if err != nil {
					t.Fatal(err)
				}
				checkSameScores(t, got, bruteTopN(pts, w, n))
				if stats.LayersAccessed > n {
					t.Errorf("%v %dD n=%d: %d layers accessed, theorem 2 bound is %d",
						tc.dist, tc.d, n, stats.LayersAccessed, n)
				}
				if stats.RecordsEvaluated > tc.n {
					t.Errorf("evaluated %d records out of %d", stats.RecordsEvaluated, tc.n)
				}
			}
		}
	}
}

func TestTopNDescendingOrder(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 1000, 3, 21)
	got, _, err := ix.TopN([]float64{0.2, 0.5, 0.3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("rank %d out of order: %v > %v", i, got[i].Score, got[i-1].Score)
		}
	}
}

func TestTopNWholeSet(t *testing.T) {
	// Asking for more than exists returns the full ranking.
	pts := workload.Points(workload.Uniform, 200, 2, 3)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1}
	got, _, err := ix.TopN(w, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d results, want all 200", len(got))
	}
	checkSameScores(t, got, bruteTopN(pts, w, 200))
	ids := map[uint64]bool{}
	for _, r := range got {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %d in results", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestTopNDimensionMismatch(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 50, 3, 4)
	if _, _, err := ix.TopN([]float64{1, 2}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if s := ix.NewSearcher([]float64{1}, 5); s != nil {
		t.Error("NewSearcher accepted bad dimension")
	}
}

func TestTopNSingleAxisWeight(t *testing.T) {
	// Degenerate weights (all but one zero) reduce to sorting one column.
	pts := workload.Points(workload.Gaussian, 300, 3, 8)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 1, 0}
	got, _, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkSameScores(t, got, bruteTopN(pts, w, 10))
}

func TestMinimizationViaNegation(t *testing.T) {
	pts := workload.Points(workload.Uniform, 400, 2, 9)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Minimize x+y == maximize -(x+y).
	got, _, err := ix.TopN([]float64{-1, -1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTopN(pts, []float64{-1, -1}, 5)
	checkSameScores(t, got, want)
}

func TestProgressiveMatchesBatch(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 600, 3, 10)
	w := []float64{0.5, 0.2, 0.3}
	batch, _, err := ix.TopN(w, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher(w, 50)
	for i, want := range batch {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if got.ID != want.ID || got.Score != want.Score {
			t.Fatalf("rank %d: stream %v, batch %v", i, got, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("stream exceeded its limit")
	}
}

func TestProgressiveEarlyStopCostsLess(t *testing.T) {
	// Progressive retrieval's point (paper Section 3.3): stopping after
	// the first few results must not pay for the rest.
	ix := buildRand(t, workload.Gaussian, 2000, 3, 11)
	w := []float64{1, 1, 1}
	s1 := ix.NewSearcher(w, 500)
	s1.Next()
	early := s1.Stats()
	full, fullStats, err := ix.TopN(w, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 500 {
		t.Fatal("short result")
	}
	if early.RecordsEvaluated >= fullStats.RecordsEvaluated {
		t.Errorf("first result cost %d evaluations, full top-500 cost %d",
			early.RecordsEvaluated, fullStats.RecordsEvaluated)
	}
	if early.LayersAccessed != 1 {
		t.Errorf("first result accessed %d layers, want 1", early.LayersAccessed)
	}
}

func TestProgressiveUnbounded(t *testing.T) {
	pts := workload.Points(workload.Uniform, 300, 2, 12)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.9, 0.1}
	s := ix.NewSearcher(w, 0) // unbounded: full ranking
	var got []Result
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 300 {
		t.Fatalf("unbounded stream returned %d of 300", len(got))
	}
	checkSameScores(t, got, bruteTopN(pts, w, 300))
}

func TestStatsGrowWithN(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 5000, 3, 13)
	w := []float64{0.4, 0.3, 0.3}
	var prev Stats
	for _, n := range []int{1, 10, 100, 1000} {
		_, st, err := ix.TopN(w, n)
		if err != nil {
			t.Fatal(err)
		}
		if st.RecordsEvaluated < prev.RecordsEvaluated || st.LayersAccessed < prev.LayersAccessed {
			t.Errorf("stats shrank from %+v to %+v at n=%d", prev, st, n)
		}
		prev = st
	}
	// Top-1 must evaluate exactly the outermost layer.
	_, st, _ := ix.TopN(w, 1)
	if st.LayersAccessed != 1 || st.RecordsEvaluated != ix.LayerSize(0) {
		t.Errorf("top-1 stats %+v, want layer-1 only (%d records)", st, ix.LayerSize(0))
	}
}

func TestScore(t *testing.T) {
	ix, err := Build([]Record{{ID: 3, Vector: []float64{2, 5}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := ix.Score([]float64{10, 1}, 3); !ok || s != 25 {
		t.Errorf("Score = %v,%v", s, ok)
	}
	if _, ok := ix.Score([]float64{1, 1}, 99); ok {
		t.Error("Score of unknown ID")
	}
}

func TestDuplicatePointsQueryCorrect(t *testing.T) {
	// Duplicates land in inner layers (ties); top-N must still return
	// the right score multiset.
	pts := [][]float64{
		{1, 1}, {1, 1}, {1, 1}, // triplicate extreme
		{0, 0}, {0.5, 0.2}, {-1, -1}, {1, -1}, {-1, 1},
	}
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.TopN([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Score != 2 {
			t.Errorf("rank %d: score %v, want 2 (all three duplicates)", i, r.Score)
		}
	}
}

// TestBoundedCandidatesStayBounded pins the candidate run of a bounded
// walk: after every delivered result it holds at most as many
// candidates as results it could still supply, plus the records that
// tie the last of those, and the answer is exactly the prefix of the
// unbounded stream, which keeps every candidate in a heap and applies
// no floor. The integer grids, one with every point twice, put many
// records on the floor's score, so the cut keeps ties and the floor
// passes them.
func TestBoundedCandidatesStayBounded(t *testing.T) {
	grid := func(copies int) []Record {
		var recs []Record
		for c := 0; c < copies; c++ {
			for x := 0; x < 6; x++ {
				for y := 0; y < 6; y++ {
					recs = append(recs, Record{Vector: []float64{float64(x), float64(y)}})
				}
			}
		}
		for i, p := range rand.New(rand.NewSource(5)).Perm(len(recs)) {
			recs[i].ID = uint64(p + 1)
		}
		return recs
	}
	build := func(recs []Record, shells bool) *Index {
		ix, err := Build(recs, Options{Shells: shells})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	tomb := build(mkRecords(workload.Points(workload.Uniform, 2000, 3, 41)), false).CloneDelta()
	if _, err := tomb.DeleteDelta([]uint64{3, 17, 99, 512, 1024, 1500}, false); err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		ix   *Index
		ws   [][]float64
	}{
		{"gauss2d", build(mkRecords(workload.Points(workload.Gaussian, 1500, 2, 40)), false), nil},
		{"uniform3d-shells", build(mkRecords(workload.Points(workload.Uniform, 2000, 3, 41)), true), nil},
		{"uniform3d-tombstones", tomb, nil},
		{"grid", build(grid(1), false), [][]float64{{1, 1}, {1, 0}, {1, 2}, {-1, 1}}},
		{"grid-duplicates", build(grid(2), false), [][]float64{{1, 1}, {0, 1}, {2, 1}}},
		{"grid-shells", build(grid(2), true), [][]float64{{1, 1}, {1, 0}, {1, 3}}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, c := range corpora {
		ws := c.ws
		for len(ws) < 6 {
			ws = append(ws, randWeights(rng, c.ix.Dim()))
		}
		for _, w := range ws {
			full := drainSearcher(t, c.ix, w, 0, nil)
			for _, n := range []int{1, 3, 10, 30, 100} {
				label := fmt.Sprintf("%s w=%v n=%d", c.name, w, n)
				got := drainSearcher(t, c.ix, w, n, func(s *Searcher) {
					checkCandidateBound(t, label, s)
				})
				if want := full[:min(n, len(full))]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: bounded walk %v, unbounded prefix %v", label, got, want)
				}
			}
		}
	}
}

// drainSearcher collects a searcher's whole answer, calling after (when
// set) once after every delivered result.
func drainSearcher(t *testing.T, ix *Index, w []float64, limit int, after func(*Searcher)) []Result {
	t.Helper()
	s, err := ix.NewSearcherChecked(w, limit)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
		if after != nil {
			after(s)
		}
	}
}

// checkCandidateBound asserts the bounded run's size limit: r, the
// results it could still supply (remain less the results already
// finalized and waiting), plus the records tied with the r-th.
func checkCandidateBound(t *testing.T, label string, s *Searcher) {
	t.Helper()
	run := s.cand.run[s.cand.head:]
	r := s.remain - (len(s.emit) - s.emitPos)
	limit := min(max(r, 0), len(run))
	for limit > 0 && limit < len(run) && run[limit].Score == run[r-1].Score {
		limit++
	}
	if len(run) > limit {
		t.Fatalf("%s: %d candidates held with %d results left to supply (limit with ties %d)",
			label, len(run), r, limit)
	}
	if s.cand.heap.Len() != 0 {
		t.Fatalf("%s: bounded walk pushed %d candidates onto the heap", label, s.cand.heap.Len())
	}
}
