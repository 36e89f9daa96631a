package server

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/workload"
)

// sameRanking compares two result sequences on the total order's
// observable fields: IDs in order and bit-identical scores. Layer is
// excluded deliberately — delta-resident records report Layer -1 until
// a compaction assigns them a hull, and the write-path contract is
// bit-identical (id, score) rankings, not identical layer annotations.
func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestDeltaMatchesLegacyServing drives one mutation script through a
// server on the incremental delta path and through the paper's §3.4
// batch cascades applied directly to a copy of the same seed corpus,
// and requires every query answer to be bit-identical between them.
// This is the serving-layer form of the core equivalence property:
// publish mechanics must be invisible to results.
func TestDeltaMatchesLegacyServing(t *testing.T) {
	const n, d = 300, 3
	// A huge threshold keeps every mutation in the delta buffer for the
	// whole test.
	delta := New(buildIndex(t, n, d, 77), Config{DeltaThreshold: 1 << 20})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		delta.Close(ctx)
	})
	legacy := buildIndex(t, n, d, 77)

	ctx := context.Background()
	extra := workload.Points(workload.Uniform, 60, d, 99)
	weights := [][]float64{{0.5, 0.3, 0.2}, {1, 0, 0}, {-0.4, 1.2, 0.1}}
	check := func(i int) {
		t.Helper()
		for wi, w := range weights {
			for _, nn := range []int{1, 10, 50} {
				dr, _, err := delta.Snapshot().TopN(w, nn)
				if err != nil {
					t.Fatalf("step %d: delta topn: %v", i, err)
				}
				lr, _, err := legacy.TopN(w, nn)
				if err != nil {
					t.Fatalf("step %d: legacy topn: %v", i, err)
				}
				if !sameRanking(dr, lr) {
					t.Fatalf("step %d: weight %d n=%d: delta path diverges from legacy cascade", i, wi, nn)
				}
			}
		}
	}
	for i := 0; i < 20; i++ {
		var err, lerr error
		switch i % 4 {
		case 0, 1: // insert a few fresh records
			recs := []core.Record{
				{ID: uint64(50000 + 2*i), Vector: extra[(2*i)%len(extra)]},
				{ID: uint64(50000 + 2*i + 1), Vector: extra[(2*i+1)%len(extra)]},
			}
			err, lerr = delta.Insert(ctx, recs), legacy.InsertBatch(recs)
		case 2: // delete a seed record still present on both
			ids := []uint64{uint64(3*i + 1)}
			err, lerr = delta.Delete(ctx, ids), legacy.DeleteBatch(ids)
		case 3: // missing-ok delete mixing present and absent IDs
			var applied int
			applied, err = delta.DeleteIfPresent(ctx, []uint64{uint64(3*i + 2), 888888})
			if applied != 1 {
				t.Fatalf("step %d: missing-ok delete applied %d, want 1", i, applied)
			}
			lerr = legacy.DeleteBatch([]uint64{uint64(3*i + 2)})
		}
		if err != nil || lerr != nil {
			t.Fatalf("step %d: delta %v, legacy %v", i, err, lerr)
		}
		check(i)
	}
	if !delta.Snapshot().HasDelta() {
		t.Fatal("delta server folded its buffer; the test exercised nothing")
	}
}

// TestCompactionFoldsDeltaUnderLoad runs the full write-path machine:
// a low compaction threshold, a writer publishing insert/delete batches
// through the mutator, and concurrent readers on the live snapshot.
// Afterwards the served state must equal a from-scratch rebuild of the
// expected record set (content and bit-identical rankings), at least
// one background fold must have landed, and none may have failed.
func TestCompactionFoldsDeltaUnderLoad(t *testing.T) {
	const n, d = 400, 3
	s := New(buildIndex(t, n, d, 31), Config{DeltaThreshold: 16, CacheBytes: 1 << 20})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := []float64{0.2 + float64(r)*0.3, 0.5, 0.3}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := s.Snapshot().TopN(w, 12)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Errorf("reader %d: scores increase at rank %d", r, i)
						return
					}
				}
			}
		}(r)
	}

	// The expected live set: seed corpus, then the writer's script.
	live := make(map[uint64][]float64, n)
	seedPts := workload.Points(workload.Gaussian, n, d, 31)
	for i, p := range seedPts {
		live[uint64(i+1)] = p
	}
	extra := workload.Points(workload.Uniform, 240, d, 63)
	for i, p := range extra {
		id := uint64(10000 + i)
		if err := s.Insert(ctx, []core.Record{{ID: id, Vector: p}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		live[id] = p
		if i%3 == 0 { // delete a seed record
			victim := uint64(i + 1)
			if err := s.Delete(ctx, []uint64{victim}); err != nil {
				t.Fatalf("delete seed %d: %v", victim, err)
			}
			delete(live, victim)
		}
		if i%4 == 3 { // delete a recently inserted record
			victim := uint64(10000 + i - 2)
			if err := s.Delete(ctx, []uint64{victim}); err != nil {
				t.Fatalf("delete extra %d: %v", victim, err)
			}
			delete(live, victim)
		}
	}
	close(stop)
	wg.Wait()
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil { // drains any in-flight fold
		t.Fatal(err)
	}

	if got := s.metrics.compactions.Value(); got < 1 {
		t.Fatalf("no background compaction landed (threshold 16, %d mutations)", 240)
	}
	if got := s.metrics.compactionErrors.Value(); got != 0 {
		t.Fatalf("%d compaction errors", got)
	}
	// fold_ms times each published fold from its start to its publish,
	// so it counts what compactions counts and covers the swap that
	// compact_latency_ms times.
	vars := map[string]any{}
	if err := json.Unmarshal([]byte(s.Vars().String()), &vars); err != nil {
		t.Fatal(err)
	}
	fold, ok := vars["fold_ms"].(map[string]any)
	if !ok {
		t.Fatalf("no fold_ms histogram on the metrics: %v", vars["fold_ms"])
	}
	swap := vars["compact_latency_ms"].(map[string]any)
	if fold["count"].(float64) != float64(s.metrics.compactions.Value()) {
		t.Fatalf("fold_ms counts %v folds, compactions = %d", fold["count"], s.metrics.compactions.Value())
	}
	if fold["mean"].(float64) < swap["mean"].(float64) {
		t.Fatalf("fold_ms mean %v is below the swap's own mean %v", fold["mean"], swap["mean"])
	}

	recs := make([]core.Record, 0, len(live))
	for id, v := range live {
		recs = append(recs, core.Record{ID: id, Vector: v})
	}
	oracle, err := core.Build(recs, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Len() != len(live) {
		t.Fatalf("served %d live records, want %d", snap.Len(), len(live))
	}
	if got, want := snap.ContentFingerprint(), oracle.ContentFingerprint(); got != want {
		t.Fatalf("served content %s, rebuild oracle %s", got, want)
	}
	for _, w := range [][]float64{{1, 1, 1}, {0.7, 0.2, 0.1}, {-0.3, 0.9, 0.4}} {
		got, _, err := snap.TopN(w, 30)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.TopN(w, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanking(got, want) {
			t.Fatalf("post-compaction ranking diverges from rebuild for weights %v", w)
		}
	}
}

// TestNewFoldsRecoveredDeltaPastThreshold restarts a durable server
// whose log holds more mutations than the fold threshold: recovery
// replays them into the delta, and New publishes one background fold
// with no further mutation to trigger it. The fold changes no answer.
func TestNewFoldsRecoveredDeltaPastThreshold(t *testing.T) {
	const n, d, threshold = 300, 3, 16
	dir := t.TempDir()
	cfg := wal.Config{Options: core.Options{Seed: 1}}
	mgr, _, err := wal.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(buildIndex(t, n, d, 61)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := New(buildIndex(t, n, d, 61), Config{WAL: mgr, DeltaThreshold: 1 << 20})
	extra := workload.Points(workload.Uniform, 2*threshold, d, 62)
	for i, v := range extra {
		if err := s.Insert(ctx, []core.Record{{ID: uint64(10_000 + i), Vector: v}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(ctx, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // no checkpoint: the restart replays
		t.Fatal(err)
	}

	mgr2, rec, err := wal.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if rec.DeltaLen() < threshold {
		t.Fatalf("recovered delta %d, want at least %d", rec.DeltaLen(), threshold)
	}
	weights := [][]float64{{0.5, 0.3, 0.2}, {-1, 0.4, 0.9}}
	var want [][]core.Result
	for _, w := range weights {
		r, _, err := rec.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	s2 := New(rec, Config{WAL: mgr2, DeltaThreshold: threshold})
	defer s2.Close(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for s2.metrics.compactions.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fold published within 10s of New")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s2.metrics.snapshotSwaps.Value(); got != 1 {
		t.Fatalf("%d snapshot swaps, want the one fold", got)
	}
	snap := s2.Snapshot()
	if snap.HasDelta() {
		t.Fatal("the fold left a delta")
	}
	for i, w := range weights {
		got, _, err := snap.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanking(got, want[i]) {
			t.Fatalf("weights %v: folded answers differ from the recovered delta's", w)
		}
	}
}
