package onion

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

func testRecords(dist workload.Distribution, n, d int, seed int64) ([]Record, [][]float64) {
	pts := workload.Points(dist, n, d, seed)
	recs := make([]Record, n)
	for i, p := range pts {
		recs[i] = Record{ID: uint64(i + 1), Vector: p}
	}
	return recs, pts
}

func oracle(pts [][]float64, w []float64, n int) []float64 {
	s := make([]float64, len(pts))
	for i, p := range pts {
		s[i] = geom.Dot(w, p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

func TestPublicAPIEndToEnd(t *testing.T) {
	recs, pts := testRecords(workload.Gaussian, 2000, 3, 1)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Dim() != 3 || ix.Len() != 2000 || ix.NumLayers() == 0 {
		t.Fatalf("dim=%d len=%d layers=%d", ix.Dim(), ix.Len(), ix.NumLayers())
	}
	w := []float64{0.5, 0.3, 0.2}
	top, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(pts, w, 10)
	for i := range top {
		if diff := top[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, top[i].Score, want[i])
		}
	}
	// Stats variant reports bounded work.
	_, stats, err := ix.TopNStats(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LayersAccessed > 10 || stats.RecordsEvaluated >= 2000 {
		t.Errorf("stats %+v", stats)
	}
	// LayerSizes covers everything.
	sum := 0
	for _, s := range ix.LayerSizes() {
		sum += s
	}
	if sum != 2000 {
		t.Errorf("layer sizes sum to %d", sum)
	}
	if _, ok := ix.LayerOf(1); !ok {
		t.Error("LayerOf existing record failed")
	}
	if got := len(ix.Records()); got != 2000 {
		t.Errorf("Records len %d", got)
	}
}

func TestMinimize(t *testing.T) {
	recs, pts := testRecords(workload.Uniform, 500, 2, 2)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.7, 0.3}
	res, err := ix.Minimize(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending original scores, matching the brute-force minima.
	s := make([]float64, len(pts))
	for i, p := range pts {
		s[i] = geom.Dot(w, p)
	}
	sort.Float64s(s)
	for i := range res {
		if diff := res[i].Score - s[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, res[i].Score, s[i])
		}
	}
}

func TestStreamProgressive(t *testing.T) {
	recs, pts := testRecords(workload.Gaussian, 1000, 3, 3)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 2, 3}
	st := ix.Search(w, 100)
	want := oracle(pts, w, 100)
	for i := 0; i < 100; i++ {
		r, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if diff := r.Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, r.Score, want[i])
		}
	}
	if _, ok := st.Next(); ok {
		t.Error("stream exceeded limit")
	}
	if st.Stats().RecordsEvaluated == 0 {
		t.Error("stats empty")
	}
	// Invalid weights: a dead stream, not a panic.
	dead := ix.Search([]float64{1}, 5)
	if _, ok := dead.Next(); ok {
		t.Error("dimension-mismatch stream yielded a result")
	}
}

// bruteRanking ranks a live record set by brute force on the total
// order (score descending, ID ascending).
func bruteRanking(live map[uint64][]float64, w []float64, n int) []Result {
	out := make([]Result, 0, len(live))
	for id, v := range live {
		out = append(out, Result{ID: id, Score: geom.Dot(w, v)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	return out[:min(n, len(out))]
}

// TestShellModeSurvivesMaintenance: after an Insert and a Delete, an
// Options{Shells: true} index still evaluates layers through its shell
// tables and still matches a brute-force ranking bit for bit.
func TestShellModeSurvivesMaintenance(t *testing.T) {
	recs, _ := testRecords(workload.Uniform, 3000, 3, 4)
	ix, err := Build(recs, Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64][]float64, len(recs))
	for _, r := range recs {
		live[r.ID] = r.Vector
	}
	ws := [][]float64{{0.2, 0.5, 0.3}, {-1, 0.4, 0.1}, {0.3, -0.3, 1}}
	top, err := ix.TopN(ws[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(top[0].ID); err != nil {
		t.Fatal(err)
	}
	delete(live, top[0].ID)
	ins := Record{ID: 999999, Vector: []float64{0.7, 0.7, 0.7}}
	if err := ix.Insert(ins); err != nil {
		t.Fatal(err)
	}
	live[ins.ID] = ins.Vector
	if !ix.ShellPruning() {
		t.Fatal("maintenance left shell mode")
	}
	for _, w := range ws {
		got, st, err := ix.TopNStats(w, 20)
		if err != nil {
			t.Fatal(err)
		}
		if st.ShellLayers == 0 {
			t.Fatalf("weights %v: no layer evaluated through its shell table (%+v)", w, st)
		}
		want := bruteRanking(live, w, 20)
		if len(got) != len(want) {
			t.Fatalf("weights %v: %d results, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("weights %v rank %d: got %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

func TestSaveOpenDisk(t *testing.T) {
	recs, pts := testRecords(workload.Gaussian, 1500, 4, 5)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.onion")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.Dim() != 4 || di.Len() != 1500 || di.NumLayers() != ix.NumLayers() {
		t.Fatalf("disk header: dim=%d len=%d layers=%d", di.Dim(), di.Len(), di.NumLayers())
	}
	w := []float64{0.1, 0.2, 0.3, 0.4}
	res, stats, io, err := di.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(pts, w, 10)
	for i := range res {
		if diff := res[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, res[i].Score, want[i])
		}
	}
	if io.RandomAccesses == 0 || io.RandomAccesses > stats.LayersAccessed {
		t.Errorf("io %+v vs stats %+v", io, stats)
	}
	if io.Cost(8) <= 0 {
		t.Error("non-positive IO cost")
	}
	// Progressive disk stream.
	st, err := di.Search(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, ok := st.Next()
		if !ok || r.Score != res[i].Score {
			t.Fatalf("disk stream rank %d: %v,%v", i, r, ok)
		}
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if _, err := di.Search([]float64{1}, 3); err == nil {
		t.Error("bad-dimension disk search accepted")
	}
	// Cumulative counters and reset.
	if di.IO().RandomAccesses == 0 {
		t.Error("cumulative IO empty")
	}
	di.ResetIO()
	if di.IO().RandomAccesses != 0 {
		t.Error("reset failed")
	}
}

// TestDiskTopNEdgeCases: the on-disk walk follows Index.TopN at the
// edges — n <= 0 returns nothing without touching the file, and a NaN
// weight is rejected with ErrNonFiniteWeight instead of ranking NaNs.
func TestDiskTopNEdgeCases(t *testing.T) {
	recs, _ := testRecords(workload.Gaussian, 3000, 3, 6)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.onion")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	w := []float64{0.5, 0.3, 0.2}
	for _, n := range []int{0, -1} {
		res, stats, io, err := di.TopN(w, n)
		if err != nil || len(res) != 0 || stats != (QueryStats{}) || io != (IOStats{}) {
			t.Fatalf("n=%d: %d results, stats %+v, io %+v, err %v", n, len(res), stats, io, err)
		}
	}
	if _, _, _, err := di.TopN([]float64{math.NaN(), 0, 0}, 5); !errors.Is(err, ErrNonFiniteWeight) {
		t.Fatalf("NaN weight: err = %v, want ErrNonFiniteWeight", err)
	}
	if _, err := di.Search([]float64{0, math.Inf(1), 0}, 5); !errors.Is(err, ErrNonFiniteWeight) {
		t.Fatalf("Inf weight stream: err = %v, want ErrNonFiniteWeight", err)
	}
}

func TestOpenDiskMissing(t *testing.T) {
	if _, err := OpenDisk(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file opened")
	}
}

func TestHierarchyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	groups := map[string][]Record{}
	var all [][]float64
	id := uint64(1)
	for c, label := range []string{"west", "east"} {
		off := float64(c * 10)
		for i := 0; i < 200; i++ {
			v := []float64{off + rng.NormFloat64(), rng.NormFloat64()}
			groups[label] = append(groups[label], Record{ID: id, Vector: v})
			all = append(all, v)
			id++
		}
	}
	h, err := BuildHierarchy(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 400 || h.Dim() != 2 {
		t.Fatalf("len=%d dim=%d", h.Len(), h.Dim())
	}
	if got := h.Labels(); len(got) != 2 || got[0] != "east" {
		t.Fatalf("labels %v", got)
	}
	w := []float64{1, 0.3}
	res, st, err := h.TopN(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(all, w, 7)
	for i := range res {
		if diff := res[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, res[i].Score, want[i])
		}
	}
	if st.ChildrenQueried == 0 {
		t.Error("no children queried")
	}
	ex, _, err := h.TopNExhaustive(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex {
		if ex[i].Score != res[i].Score {
			t.Fatal("exhaustive != pruned")
		}
	}
	local, _, err := h.TopNWhere(w, 3, func(l string) bool { return l == "west" })
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 3 {
		t.Fatalf("local returned %d", len(local))
	}
}

func TestMaintenanceThroughFacade(t *testing.T) {
	recs, _ := testRecords(workload.Uniform, 200, 2, 7)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertBatch([]Record{
		{ID: 1001, Vector: []float64{2, 2}},
		{ID: 1002, Vector: []float64{-2, -2}},
	}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 202 {
		t.Fatalf("len = %d", ix.Len())
	}
	if err := ix.Update(1001, []float64{3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(1002); err != nil {
		t.Fatal(err)
	}
	top, err := ix.TopN([]float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].ID != 1001 || top[0].Score != 6 {
		t.Errorf("top after maintenance: %+v", top[0])
	}
}

func TestHierarchicalCompactionFacade(t *testing.T) {
	recs, pts := testRecords(workload.Gaussian, 1500, 3, 6)
	hx, err := Build(recs, Options{HierarchicalCompaction: true, CompactionClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hx.HierarchicalCompaction() {
		t.Fatal("Build with HierarchicalCompaction did not attach a compactor")
	}
	// Attached or not, queries answer identically.
	px, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{1, 1, 1}, {0.6, -0.2, 0.4}} {
		got, err := hx.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		want, err := px.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				t.Fatalf("rank %d: (%d, %v) vs plain (%d, %v)", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
		bf := oracle(pts, w, 25)
		for i := range got {
			if diff := got[i].Score - bf[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("rank %d score %v, brute force %v", i, got[i].Score, bf[i])
			}
		}
	}
	// Legacy structural maintenance detaches the accelerator...
	if err := hx.Insert(Record{ID: 9001, Vector: []float64{3, 3, 3}}); err != nil {
		t.Fatal(err)
	}
	if hx.HierarchicalCompaction() {
		t.Fatal("compactor survived a legacy Insert")
	}
	// ...and EnableHierarchicalCompaction restores it after the fact.
	if err := hx.EnableHierarchicalCompaction(3); err != nil {
		t.Fatal(err)
	}
	if !hx.HierarchicalCompaction() {
		t.Fatal("EnableHierarchicalCompaction did not attach")
	}
	if _, ok := hx.LayerOf(9001); !ok {
		t.Fatal("inserted record missing after re-attach")
	}
}
