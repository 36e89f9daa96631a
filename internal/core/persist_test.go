package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
)

// cloneApplyBytes returns the bytes allocated per publish of a
// CloneDelta chain starting at cur: clone, insert one fresh record,
// and on every other step tombstone one base record — the serving
// layer's per-batch work.
func cloneApplyBytes(t *testing.T, cur *Index, steps int, nextID uint64, baseIDs []uint64) float64 {
	t.Helper()
	vec := []float64{0.1, 0.2, 0.3}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		next := cur.CloneDelta()
		if err := next.InsertDelta([]Record{{ID: nextID + uint64(i), Vector: vec}}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := next.DeleteDelta(baseIDs[i/2:i/2+1], false); err != nil {
				t.Fatal(err)
			}
		}
		cur = next
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
}

// TestCloneDeltaCopiesOBatch pins the O(batch) publish: a clone-and-
// apply on a 4,096-record delta allocates about what one on a
// 512-record delta does, and a few KiB in all. A delta deep-copied per
// clone, as before the persistent delta, allocated 293 KiB per publish
// at 4,096 records and 57 KiB at 512.
func TestCloneDeltaCopiesOBatch(t *testing.T) {
	base, err := Build(mkRecords(workload.Points(workload.Uniform, 600, 3, 5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, base.Len())
	for _, r := range base.Records() {
		ids = append(ids, r.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	withDelta := func(n int) *Index {
		cur := base.CloneDelta()
		pts := workload.Points(workload.Gaussian, n, 3, int64(n))
		for i := 0; i < n; i += 64 {
			next := cur.CloneDelta()
			if err := next.InsertDelta(mkRecordsFrom(pts[i:i+64], uint64(100_000+i))); err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		return cur
	}
	const steps = 512
	small := cloneApplyBytes(t, withDelta(512), steps, 1_000_000, ids[:steps/2])
	large := cloneApplyBytes(t, withDelta(4096), steps, 1_000_000, ids[steps/2:])
	t.Logf("bytes per clone-and-apply: %.0f at 512 pending, %.0f at 4096", small, large)
	if large > 16<<10 {
		t.Fatalf("clone-and-apply on a 4096-record delta allocates %.0f bytes, want under 16 KiB", large)
	}
	if large > 2*small {
		t.Fatalf("clone-and-apply allocates %.0f bytes at 4096 pending, %.0f at 512: grows with the delta", large, small)
	}
}

// mkRecordsFrom assigns consecutive IDs from first to pts.
func mkRecordsFrom(pts [][]float64, first uint64) []Record {
	recs := make([]Record, len(pts))
	for i, p := range pts {
		recs[i] = Record{ID: first + uint64(i), Vector: p}
	}
	return recs
}

// TestCloneDeltaSiblingsIndependent mutates two CloneDeltas of one
// version at once, while a third goroutine queries that version: each
// sibling sees its own records and none of the other's, and the shared
// version is unchanged. Run under -race it also checks that siblings
// never write what the other, or a reader, can see.
func TestCloneDeltaSiblingsIndependent(t *testing.T) {
	base, err := Build(mkRecords(workload.Points(workload.Uniform, 300, 2, 9)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent := base.CloneDelta()
	if err := parent.InsertDelta(mkRecordsFrom(workload.Points(workload.Gaussian, 40, 2, 10), 5_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.DeleteDelta([]uint64{1, 2, 5_000}, false); err != nil {
		t.Fatal(err)
	}
	want := parent.Fingerprint()
	wantRecs := sortedLayer(parent.Records())

	// Each sibling inserts its own ID range past an overlay fold and a
	// log regrowth, and deletes its own delta and base records.
	sib := []*Index{parent.CloneDelta(), parent.CloneDelta()}
	expect := []map[uint64][]float64{sortedLayer(parent.Records()), sortedLayer(parent.Records())}
	var wg sync.WaitGroup
	for k := range sib {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := sib[k]
			pts := workload.Points(workload.Gaussian, 400, 2, int64(20+k))
			for i, p := range pts {
				id := uint64(10_000*(k+1) + i)
				next := cur.CloneDelta()
				if err := next.InsertDelta([]Record{{ID: id, Vector: p}}); err != nil {
					t.Error(err)
					return
				}
				expect[k][id] = p
				if i%3 == 0 {
					del := []uint64{uint64(10 + 2*i + k), uint64(5_001 + k + 2*(i/3)%36)}
					n, err := next.DeleteDelta(del, true)
					if err != nil {
						t.Error(err)
						return
					}
					removed := 0
					for _, id := range del {
						if _, ok := expect[k][id]; ok {
							delete(expect[k], id)
							removed++
						}
					}
					if n != removed {
						t.Errorf("sibling %d: DeleteDelta removed %d, want %d", k, n, removed)
						return
					}
				}
				cur = next
			}
			sib[k] = cur
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := []float64{0.3, -0.8}
		for i := 0; i < 50; i++ {
			got, _, err := parent.TopN(w, 10)
			if err != nil {
				t.Error(err)
				return
			}
			sameRankingErr(t, "parent under sibling writes", got, bruteRank(parent.Records(), w)[:10])
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := parent.Fingerprint(); got != want {
		t.Fatalf("shared version changed: fingerprint %s, want %s", got, want)
	}
	if got := sortedLayer(parent.Records()); !reflect.DeepEqual(got, wantRecs) {
		t.Fatal("shared version's records changed")
	}
	for k, ix := range sib {
		if got := sortedLayer(ix.Records()); !reflect.DeepEqual(got, expect[k]) {
			t.Fatalf("sibling %d holds %d records, want %d: it sees the other's mutations or lost its own", k, len(got), len(expect[k]))
		}
		checkDeltaAgainstOracles(t, ix, rand.New(rand.NewSource(int64(k))), k)
	}
}

// sameRankingErr is sameRanking for goroutines other than the test's.
func sameRankingErr(t *testing.T, ctx string, got, want []Result) {
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", ctx, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Errorf("%s: rank %d: got %v want %v", ctx, i, got[i], want[i])
			return
		}
	}
}

// TestDeltaLogStaysBounded runs 100k insert/delete pairs of fresh IDs
// through a CloneDelta chain, keeping a window of live delta records
// far below any fold threshold: the log reclaims its dead slots, so it
// never holds more than twice the live records plus the reclaim floor.
func TestDeltaLogStaysBounded(t *testing.T) {
	base, err := Build(mkRecords(workload.Points(workload.Uniform, 100, 2, 3)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const window, pairs = 256, 100_000
	cur := base
	maxSlots := 0
	for i := 0; i < pairs; i++ {
		next := cur.CloneDelta()
		id := uint64(1_000_000 + i)
		if err := next.InsertDelta([]Record{{ID: id, Vector: []float64{float64(i % 97), float64(i % 89)}}}); err != nil {
			t.Fatal(err)
		}
		if i >= window {
			if _, err := next.DeleteDelta([]uint64{id - window}, false); err != nil {
				t.Fatal(err)
			}
		}
		cur = next
		maxSlots = max(maxSlots, len(cur.delta.ids))
	}
	if cur.DeltaLen() != window || cur.Len() != base.Len()+window {
		t.Fatalf("DeltaLen %d, Len %d; want %d and %d", cur.DeltaLen(), cur.Len(), window, base.Len()+window)
	}
	if limit := 2*window + reclaimMin; maxSlots > limit {
		t.Fatalf("log held %d slots for %d live records, want at most %d", maxSlots, window, limit)
	}
	checkDeltaAgainstOracles(t, cur, rand.New(rand.NewSource(1)), pairs)
}

// TestDeltaOneVersionWritesInPlace pins the cost of a long run of
// mutations on one version, as a WAL replay or a fold's journal
// applies them: per insert it allocates O(1) bytes, however long the
// run. Folding the ID overlay into a fresh copy of the shared map every
// overlayMax writes would cost O(delta/overlayMax) per insert, about
// 5.9 KiB at 50,000.
func TestDeltaOneVersionWritesInPlace(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Uniform, 200, 2, 4)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	recs := mkRecordsFrom(workload.Points(workload.Gaussian, n, 2, 6), 1_000_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range recs {
		if err := ix.InsertDelta(recs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("bytes per insert over %d inserts on one version: %.0f", n, per)
	if per > 2<<10 {
		t.Fatalf("an insert on one version allocates %.0f bytes, want under 2 KiB", per)
	}
	if ix.DeltaLen() != n {
		t.Fatalf("DeltaLen %d, want %d", ix.DeltaLen(), n)
	}
	for i := 0; i < n; i += n / 100 {
		r := recs[i]
		if v, ok := ix.Vector(r.ID); !ok || v[0] != r.Vector[0] || v[1] != r.Vector[1] {
			t.Fatalf("Vector(%d) = %v, %v; want %v", r.ID, v, ok, r.Vector)
		}
	}
}
