package hierarchy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/topk"
	"repro/internal/workload"
)

// twoClusterData reproduces the Figure 6 configuration: two clusters
// with distinct attribute distributions, so different linear criteria
// are answered by different clusters.
func twoClusterData(n int, seed int64) (map[string][]core.Record, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	groups := make(map[string][]core.Record)
	var all [][]float64
	id := uint64(1)
	for i := 0; i < n; i++ {
		// "black" cluster: high x1, low x2. "white": low x1, high x2.
		v := []float64{4 + rng.NormFloat64(), rng.NormFloat64()}
		groups["black"] = append(groups["black"], core.Record{ID: id, Vector: v})
		all = append(all, v)
		id++
		w := []float64{rng.NormFloat64(), 4 + rng.NormFloat64()}
		groups["white"] = append(groups["white"], core.Record{ID: id, Vector: w})
		all = append(all, w)
		id++
	}
	return groups, all
}

func bruteScores(pts [][]float64, w []float64, n int) []float64 {
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

// TestMergeOrdersCrossChildTiesByID: records that tie exactly across
// children must merge in the total order (score desc, record ID asc),
// not in child order. Child "a" sorts first but holds the larger ID of
// every tied pair; each child's own scores are distinct, so only the
// merge decides the tie order. TopN is checked whenever the parent
// routes the query to both children (a tie inside the parent's own top
// is the core walk's layering tie, outside this test).
func TestMergeOrdersCrossChildTiesByID(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0, 1}, {-1, -1}}
	groups := map[string][]core.Record{}
	for i, v := range vecs {
		groups["a"] = append(groups["a"], core.Record{ID: uint64(20 + 2*i), Vector: v})
		groups["b"] = append(groups["b"], core.Record{ID: uint64(10 + 2*i), Vector: v})
	}
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routedBoth := 0
	for _, w := range [][]float64{{1, 0}, {0, 1}, {-1, 0.5}} {
		var want []core.Result
		for _, recs := range groups {
			for _, r := range recs {
				want = append(want, core.Result{ID: r.ID, Score: geom.Dot(w, r.Vector)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return topk.ResultGreater(want[i].Score, want[i].ID, want[j].Score, want[j].ID)
		})
		for n := 1; n <= len(want)+1; n++ {
			exp := want[:min(n, len(want))]
			check := func(mode string, got []core.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s w=%v n=%d: %v", mode, w, n, err)
				}
				if len(got) != len(exp) {
					t.Fatalf("%s w=%v n=%d: %d results, want %d", mode, w, n, len(got), len(exp))
				}
				for i := range exp {
					if got[i].ID != exp[i].ID || got[i].Score != exp[i].Score {
						t.Fatalf("%s w=%v n=%d: rank %d = (%d, %v), want (%d, %v)",
							mode, w, n, i, got[i].ID, got[i].Score, exp[i].ID, exp[i].Score)
					}
				}
			}
			got, _, err := h.TopNExhaustive(w, n)
			check("TopNExhaustive", got, err)
			got, _, err = h.TopNWhere(w, n, func(string) bool { return true })
			check("TopNWhere", got, err)
			got, st, err := h.TopN(w, n)
			if err == nil && st.ChildrenQueried < 2 {
				continue
			}
			routedBoth++
			check("TopN", got, err)
		}
	}
	if routedBoth == 0 {
		t.Fatal("the parent never routed a query to both children")
	}
}

func TestBuildAndAccessors(t *testing.T) {
	groups, _ := twoClusterData(100, 1)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != 2 || h.Len() != 200 {
		t.Fatalf("dim=%d len=%d", h.Dim(), h.Len())
	}
	labels := h.Labels()
	if len(labels) != 2 || labels[0] != "black" || labels[1] != "white" {
		t.Fatalf("labels = %v", labels)
	}
	if _, ok := h.Child("black"); !ok {
		t.Error("child lookup failed")
	}
	if _, ok := h.Child("red"); ok {
		t.Error("phantom child found")
	}
	// Parent holds exactly the union of the children's outer layers.
	black, _ := h.Child("black")
	white, _ := h.Child("white")
	wantParent := len(black.Layer(0)) + len(white.Layer(0))
	if h.Parent().Len() != wantParent {
		t.Errorf("parent has %d records, want %d", h.Parent().Len(), wantParent)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, core.Options{}); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := Build(map[string][]core.Record{"a": {}}, core.Options{}); err == nil {
		t.Error("all-empty groups accepted")
	}
	dup := map[string][]core.Record{
		"a": {{ID: 1, Vector: []float64{0, 0}}, {ID: 2, Vector: []float64{1, 0}}, {ID: 3, Vector: []float64{0, 1}}},
		"b": {{ID: 1, Vector: []float64{5, 5}}, {ID: 4, Vector: []float64{6, 5}}, {ID: 5, Vector: []float64{5, 6}}},
	}
	if _, err := Build(dup, core.Options{}); err == nil {
		t.Error("cross-group duplicate ID accepted")
	}
	if _, err := BuildFromLabels([]core.Record{{ID: 1, Vector: []float64{1}}}, nil, core.Options{}); err == nil {
		t.Error("label length mismatch accepted")
	}
}

func TestGlobalTopNExact(t *testing.T) {
	groups, all := twoClusterData(400, 2)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64()}
		for _, n := range []int{1, 5, 20} {
			got, st, err := h.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteScores(all, w, n)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: %d results", trial, n, len(got))
			}
			for i := range got {
				if diff := got[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d n=%d rank %d: %v want %v", trial, n, i, got[i].Score, want[i])
				}
			}
			if st.ChildrenQueried < 1 || st.ChildrenQueried > 2 {
				t.Errorf("children queried = %d", st.ChildrenQueried)
			}
		}
	}
}

// TestParentPrunesChildren reproduces the paper's Figures 6–7 claim:
// a criterion aligned with one cluster's distribution is answered by
// that cluster alone.
func TestParentPrunesChildren(t *testing.T) {
	groups, _ := twoClusterData(400, 4)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// L1 = mostly x1: the "black" cluster (high x1) must win alone.
	res, st, err := h.TopN([]float64{1, 0.05}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChildrenQueried != 1 {
		t.Errorf("L1 queried %d children, want 1", st.ChildrenQueried)
	}
	black, _ := h.Child("black")
	for _, r := range res {
		if _, ok := black.LayerOf(r.ID); !ok {
			t.Errorf("L1 result %d not from the black cluster", r.ID)
		}
	}
	// L2 = mostly x2: the "white" cluster answers.
	_, st2, err := h.TopN([]float64{0.05, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ChildrenQueried != 1 {
		t.Errorf("L2 queried %d children, want 1", st2.ChildrenQueried)
	}
}

func TestExhaustiveMatchesPruned(t *testing.T) {
	pts, labels := workload.Clustered(900, 3, 5, 1.0, 30, 5)
	recs := make([]core.Record, len(pts))
	strLabels := make([]string, len(pts))
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		strLabels[i] = fmt.Sprintf("c%d", labels[i])
	}
	h, err := BuildFromLabels(recs, strLabels, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		a, sa, err := h.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := h.TopNExhaustive(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("lengths %d vs %d", len(a), len(b))
		}
		for i := range a {
			if diff := a[i].Score - b[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d rank %d: pruned %v exhaustive %v", trial, i, a[i].Score, b[i].Score)
			}
		}
		if sa.ChildrenQueried > sb.ChildrenQueried {
			t.Errorf("pruned queried %d children, exhaustive %d", sa.ChildrenQueried, sb.ChildrenQueried)
		}
	}
}

func TestLocalQueries(t *testing.T) {
	groups, _ := twoClusterData(300, 7)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1}
	res, st, err := h.TopNWhere(w, 5, func(l string) bool { return l == "white" })
	if err != nil {
		t.Fatal(err)
	}
	if st.ChildrenQueried != 1 || st.Parent.LayersAccessed != 0 {
		t.Errorf("local query stats %+v", st)
	}
	white, _ := h.Child("white")
	var whitePts [][]float64
	for _, r := range white.Records() {
		whitePts = append(whitePts, r.Vector)
	}
	want := bruteScores(whitePts, w, 5)
	for i := range res {
		if diff := res[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: %v want %v", i, res[i].Score, want[i])
		}
	}
	// No matching label: empty result, no error.
	none, _, err := h.TopNWhere(w, 5, func(string) bool { return false })
	if err != nil || none != nil {
		t.Errorf("no-match query: %v,%v", none, err)
	}
}

func TestQueryErrors(t *testing.T) {
	groups, _ := twoClusterData(50, 8)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.TopN([]float64{1}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, _, err := h.TopN([]float64{1, 1}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := h.TopNExhaustive([]float64{1}, 5); err == nil {
		t.Error("exhaustive dimension mismatch accepted")
	}
	if _, _, err := h.TopNWhere([]float64{1}, 5, func(string) bool { return true }); err == nil {
		t.Error("where dimension mismatch accepted")
	}
}

// TestGlobalVsLocalDilemma demonstrates the Section 4 motivation: a
// local constraint on a single global Onion forces a deep search, while
// the hierarchy answers from the right child directly.
func TestGlobalVsLocalDilemma(t *testing.T) {
	groups, all := twoClusterData(500, 9)
	h, err := Build(groups, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Global single onion over everything.
	recs := make([]core.Record, len(all))
	for i, p := range all {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	global, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Constraint: only "white" records (even IDs by construction);
	// criterion favors the black cluster, so the single global Onion
	// must dig deep past black records to find white ones.
	w := []float64{1, 0.1}
	white, _ := h.Child("white")
	_, localStats, err := h.TopNWhere(w, 10, func(l string) bool { return l == "white" })
	if err != nil {
		t.Fatal(err)
	}
	// Emulate the constraint on the global onion: stream until 10
	// white records pass the filter.
	s := global.NewSearcher(w, 0)
	found := 0
	for found < 10 {
		r, ok := s.Next()
		if !ok {
			break
		}
		if _, isWhite := white.LayerOf(r.ID); isWhite {
			found++
		}
	}
	if found != 10 {
		t.Fatal("streamed out before finding 10 white records")
	}
	globalCost := s.Stats().RecordsEvaluated
	localCost := localStats.Children.RecordsEvaluated
	if localCost >= globalCost {
		t.Errorf("local-constraint query: hierarchy cost %d >= single-onion cost %d; Section 4 predicts the opposite",
			localCost, globalCost)
	}
	t.Logf("constrained top-10: hierarchy evaluated %d records, single global onion %d", localCost, globalCost)
}
