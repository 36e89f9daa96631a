package core

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// stubCompactor is a single-cluster ClusterCompactor exercising the
// core seam without internal/hierarchy: Fold re-peels the whole record
// set with Build and hands back that flat partition. It lets these
// tests drive every contract path — success, fold failure, successor
// length skew — from inside the package.
type stubCompactor struct {
	recs     map[uint64][]float64
	failFold error // returned by Fold when set
	skewNext bool  // successor lies about Len() by +1
	skew     int
}

func newStubCompactor(ix *Index) *stubCompactor {
	s := &stubCompactor{recs: map[uint64][]float64{}}
	for _, r := range ix.Records() {
		s.recs[r.ID] = r.Vector
	}
	return s
}

func (s *stubCompactor) Len() int { return len(s.recs) + s.skew }

func (s *stubCompactor) Fold(inserts []Record, deletes []uint64) (ClusterCompactor, [][]Record, error) {
	if s.failFold != nil {
		return nil, nil, s.failFold
	}
	next := &stubCompactor{recs: make(map[uint64][]float64, len(s.recs))}
	for id, v := range s.recs {
		next.recs[id] = v
	}
	for _, id := range deletes {
		if _, ok := next.recs[id]; !ok {
			return nil, nil, errors.New("stub: delete of unknown id")
		}
		delete(next.recs, id)
	}
	for _, r := range inserts {
		next.recs[r.ID] = r.Vector
	}
	if s.skewNext {
		next.skew = 1
	}
	if len(next.recs) == 0 {
		return next, nil, nil
	}
	all := make([]Record, 0, len(next.recs))
	for id, v := range next.recs {
		all = append(all, Record{ID: id, Vector: v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	reix, err := Build(all, Options{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	layers := make([][]Record, reix.NumLayers())
	for k := range layers {
		layers[k] = reix.Layer(k)
	}
	return next, layers, nil
}

func TestSetClusterCompactorGuards(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 40, 3, 5)
	cc := newStubCompactor(ix)

	cc.skew = 1
	if err := ix.SetClusterCompactor(cc); err == nil || !strings.Contains(err.Error(), "41 records") {
		t.Fatalf("length-mismatch attach: got %v", err)
	}
	cc.skew = 0

	// A pending delta does not block attachment: the compactor describes
	// the base (the tombstoned record included), and a fold applies the
	// delta to it.
	if err := ix.InsertDelta([]Record{{ID: 1000, Vector: []float64{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDelta([]uint64{1}, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.SetClusterCompactor(cc); err != nil {
		t.Fatalf("pending-delta attach: %v", err)
	}
	want := ix.ContentFingerprint()
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.HasDelta() || ix.ContentFingerprint() != want {
		t.Fatalf("fold through the compactor: delta %v, content changed %v", ix.HasDelta(), ix.ContentFingerprint() != want)
	}
	if err := ix.SetClusterCompactor(nil); err != nil {
		t.Fatal(err)
	}

	cc = newStubCompactor(ix)
	if err := ix.SetClusterCompactor(cc); err != nil {
		t.Fatalf("clean attach: %v", err)
	}
	if got := ix.ClusterCompactor(); got != ClusterCompactor(cc) {
		t.Fatalf("getter returned %v, want the attached stub", got)
	}
	if err := ix.SetClusterCompactor(nil); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if ix.ClusterCompactor() != nil {
		t.Fatal("compactor still attached after nil detach")
	}
}

func TestCompactClusteredFoldsDelta(t *testing.T) {
	const n, d = 120, 3
	ix := buildRand(t, workload.Gaussian, n, d, 9)
	if err := ix.SetClusterCompactor(newStubCompactor(ix)); err != nil {
		t.Fatal(err)
	}
	// No delta: clustered Compact is a no-op, not an error.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}

	live := map[uint64][]float64{}
	for _, r := range ix.Records() {
		live[r.ID] = r.Vector
	}
	ins := make([]Record, 25)
	for i := range ins {
		v := []float64{float64(i) * 0.3, float64(i%5) - 2, -float64(i) * 0.1}
		ins[i] = Record{ID: uint64(500 + i), Vector: v}
		live[ins[i].ID] = v
	}
	if err := ix.InsertDelta(ins); err != nil {
		t.Fatal(err)
	}
	del := []uint64{3, 17, 44, 502}
	for _, id := range del {
		delete(live, id)
	}
	if _, err := ix.DeleteDelta(del, false); err != nil {
		t.Fatal(err)
	}

	if err := ix.Compact(); err != nil {
		t.Fatalf("clustered compact: %v", err)
	}
	if ix.HasDelta() {
		t.Fatal("delta survived the fold")
	}
	if ix.ClusterCompactor() == nil {
		t.Fatal("fold dropped the compactor")
	}
	if got, want := ix.ClusterCompactor().Len(), len(live); got != want {
		t.Fatalf("successor compactor holds %d records, want %d", got, want)
	}
	if ix.Len() != len(live) {
		t.Fatalf("index holds %d records, want %d", ix.Len(), len(live))
	}
	recs := make([]Record, 0, len(live))
	for id, v := range live {
		recs = append(recs, Record{ID: id, Vector: v})
	}
	for _, w := range [][]float64{{1, 1, 1}, {0.2, -0.9, 0.5}} {
		got, _, err := ix.TopN(w, 20)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "post-fold", got, bruteRank(recs, w)[:20])
	}
	if err := ix.VerifyOrdering([][]float64{{1, 0, 0}, {0.4, 0.4, 0.2}}, 1e-9); err != nil {
		t.Fatalf("folded partition violates the onion property: %v", err)
	}
}

func TestCompactClusteredErrorLeavesReceiverUntouched(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 60, 2, 3)
	boom := errors.New("cluster store on fire")
	cc := newStubCompactor(ix)
	cc.failFold = boom
	if err := ix.SetClusterCompactor(cc); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDelta([]Record{{ID: 900, Vector: []float64{9, 9}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDelta([]uint64{5}, false); err != nil {
		t.Fatal(err)
	}
	before := ix.ContentFingerprint()

	err := ix.Compact()
	if !errors.Is(err, boom) {
		t.Fatalf("compact error = %v, want wrapped fold failure", err)
	}
	// Atomicity: the failed fold must leave index, delta, and compactor
	// exactly as they were — retryable after the fault clears.
	if !ix.HasDelta() || ix.DeltaLen() == 0 {
		t.Fatal("failed fold consumed the delta")
	}
	if got := ix.ContentFingerprint(); got != before {
		t.Fatalf("failed fold changed content: %s != %s", got, before)
	}
	if ix.ClusterCompactor() == nil {
		t.Fatal("failed fold detached the compactor")
	}
	cc.failFold = nil
	if err := ix.Compact(); err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	if ix.HasDelta() {
		t.Fatal("retry left the delta pending")
	}
}

func TestCompactClusteredRejectsLyingSuccessor(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 50, 2, 11)
	cc := newStubCompactor(ix)
	cc.skewNext = true
	if err := ix.SetClusterCompactor(cc); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDelta([]Record{{ID: 800, Vector: []float64{1, -1}}}); err != nil {
		t.Fatal(err)
	}
	err := ix.Compact()
	if err == nil || !strings.Contains(err.Error(), "fold produced") {
		t.Fatalf("skewed successor accepted: err=%v", err)
	}
	if !ix.HasDelta() {
		t.Fatal("rejected fold consumed the delta")
	}
}

func TestCompactClusteredDrainAndRefill(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 30, 2, 21)
	if err := ix.SetClusterCompactor(newStubCompactor(ix)); err != nil {
		t.Fatal(err)
	}
	all := make([]uint64, 0, ix.Len())
	for _, r := range ix.Records() {
		all = append(all, r.ID)
	}
	if _, err := ix.DeleteDelta(all, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("drain to empty: %v", err)
	}
	if ix.Len() != 0 || ix.NumLayers() != 0 {
		t.Fatalf("drained index has %d records in %d layers", ix.Len(), ix.NumLayers())
	}
	if ix.ClusterCompactor() == nil {
		t.Fatal("empty fold dropped the compactor")
	}
	refill := []Record{
		{ID: 1, Vector: []float64{0, 0}},
		{ID: 2, Vector: []float64{4, 1}},
		{ID: 3, Vector: []float64{-1, 3}},
	}
	if err := ix.InsertDelta(refill); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("refill from empty: %v", err)
	}
	got, _, err := ix.TopN([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "refilled", got, bruteRank(refill, []float64{1, 1}))
}

func TestCompactClusteredOnSharedCloneDelta(t *testing.T) {
	base := buildRand(t, workload.Gaussian, 80, 3, 13)
	if err := base.SetClusterCompactor(newStubCompactor(base)); err != nil {
		t.Fatal(err)
	}
	baseFP := base.Fingerprint()

	// A CloneDelta twin shares the base arrays; the flat cascade path
	// must refuse to compact it, the clustered path folds it safely
	// because the fold replaces the arrays instead of rewriting them.
	cl := base.CloneDelta()
	if err := cl.InsertDelta([]Record{{ID: 700, Vector: []float64{2, 2, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeleteDelta([]uint64{10}, false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Compact(); err != nil {
		t.Fatalf("clustered compact on shared clone: %v", err)
	}
	if cl.HasDelta() {
		t.Fatal("clone still has delta")
	}
	if got := base.Fingerprint(); got != baseFP {
		t.Fatalf("folding the clone changed the published base: %s != %s", got, baseFP)
	}
	recs := base.Records()
	w := []float64{0.5, 0.3, 0.2}
	got, _, err := base.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "base after clone fold", got, bruteRank(recs, w)[:10])
}

func TestCompactedCloneWithCompactor(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 70, 3, 8)
	if err := ix.SetClusterCompactor(newStubCompactor(ix)); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDelta([]Record{{ID: 600, Vector: []float64{1, 0, -1}}}); err != nil {
		t.Fatal(err)
	}
	want := ix.ContentFingerprint()

	cp, err := ix.CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	if cp.HasDelta() {
		t.Fatal("compacted clone still has delta")
	}
	if cp.ClusterCompactor() == nil {
		t.Fatal("compacted clone lost the compactor")
	}
	if got := cp.ContentFingerprint(); got != want {
		t.Fatalf("compacted clone content %s, want %s", got, want)
	}
	// The origin keeps its delta and stays independently foldable.
	if !ix.HasDelta() {
		t.Fatal("CompactedClone consumed the origin's delta")
	}
	if err := ix.InsertDelta([]Record{{ID: 601, Vector: []float64{0, 1, 1}}}); err != nil {
		t.Fatalf("origin mutation after CompactedClone: %v", err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatalf("origin compact after CompactedClone: %v", err)
	}
	if ix.Len() != cp.Len()+1 {
		t.Fatalf("origin has %d records, clone %d — want clone+1", ix.Len(), cp.Len())
	}
}

func TestLegacyMaintenanceDetachesCompactor(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 45, 2, 19)
	if err := ix.SetClusterCompactor(newStubCompactor(ix)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Record{ID: 300, Vector: []float64{5, 5}}); err != nil {
		t.Fatal(err)
	}
	if ix.ClusterCompactor() != nil {
		t.Fatal("legacy Insert left a stale compactor attached")
	}
	// Detached, the index compacts flat again.
	if err := ix.InsertDelta([]Record{{ID: 301, Vector: []float64{-5, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.LayerOf(301); !ok {
		t.Fatal("flat compact after detach lost the delta record")
	}
}
