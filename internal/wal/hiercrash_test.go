// Crash torture for the hierarchical compaction path: the byte-offset
// power-loss sweep of crash_test.go, run against a server whose index
// carries a hierarchy.Compactor and whose delta threshold is low
// enough that background per-cluster folds are in flight while the
// mutation stream commits. The WAL never frames a fold (compaction is
// derived state), so recovery — which replays the log into the delta
// of the flat bootstrap checkpoint — must land on the identical
// logical content at every cut, whatever the fold timing was.
package wal_test

import (
	"context"
	"expvar"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
)

func TestCrashAtEveryWALOffsetHierarchicalCompaction(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	mgr, rec, err := wal.Open("/data", wal.Config{FS: fs, CheckpointBytes: -1, Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir recovered state")
	}
	base := buildIndex(t, 120, dim, 17)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	if _, err := hierarchy.Attach(base, hierarchy.CompactorOptions{Clusters: 5, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	// Threshold 2: the delta crosses it mid-stream, so hierarchical
	// folds run concurrently with the ops that follow.
	s := server.New(base, server.Config{WAL: mgr, DeltaThreshold: 2})
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).ContentFingerprint)
	live := s.Snapshot()
	if live.ClusterCompactor() == nil {
		t.Fatal("published snapshot lost the hierarchical compactor")
	}

	// At least one fold must land before the crash, so the sweep below
	// genuinely covers kill-during-and-after-fold states. The published
	// compaction count says so directly; an empty delta does not always
	// follow, because the last fold may replay a journal that leaves
	// fewer pending mutations than the threshold.
	deadline := time.Now().Add(10 * time.Second)
	for s.Vars().Get("compactions").(*expvar.Int).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no hierarchical compaction landed within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	folded := s.Snapshot()
	if got, want := folded.ContentFingerprint(), fps[ops]; got != want {
		t.Fatalf("folded snapshot content %s, want %s", got, want)
	}
	if folded.ClusterCompactor() == nil {
		t.Fatal("folded snapshot lost the hierarchical compactor")
	}

	// Power loss: no Close, no final checkpoint.
	fs.Crash()
	cpName, wlName := dataFiles(t, fs, "/data")
	cp, err := fs.ReadFile("/data/" + cpName)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := fs.ReadFile("/data/" + wlName)
	if err != nil {
		t.Fatal(err)
	}
	body := wl[wal.HeaderSize:]
	ends := wal.RecordEnds(body, dim)
	if len(ends) != ops {
		t.Fatalf("durable log holds %d records, want %d — a fold must never add or drop WAL frames", len(ends), ops)
	}

	for cut := 0; cut <= len(body); cut++ {
		complete := 0
		for _, e := range ends {
			if e <= cut {
				complete++
			}
		}
		fs2 := vfs.NewCrashFS()
		if err := fs2.MkdirAll("/data", 0o755); err != nil {
			t.Fatal(err)
		}
		writeDurable(t, fs2, "/data", cpName, cp)
		writeDurable(t, fs2, "/data", wlName, wl[:wal.HeaderSize+cut])
		m2, rec, err := wal.Open("/data", wal.Config{FS: fs2, CheckpointBytes: -1, Options: core.Options{Seed: 17}})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if rec == nil {
			t.Fatalf("cut %d: no state recovered", cut)
		}
		if got := rec.ContentFingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): content fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if cut == len(body) {
			// Full durable prefix: the flat-recovered index must rank
			// bit-identically to the hierarchically folded snapshot.
			w := []float64{0.6, 0.4}
			want, _, _ := folded.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if len(got) != len(want) {
				t.Fatalf("recovered top-15 has %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("recovered rank %d = (%d, %v), folded = (%d, %v)",
						i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
		m2.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
}

// TestHierarchicalAttachAfterReplay is onionserve's -hier-compaction
// restart over a checkpoint that carries no cluster spec: the log
// replays an insert and a delete into the recovered delta, Attach
// clusters the layered base with that delta pending, and the first
// fold is hierarchical and changes no answer.
func TestHierarchicalAttachAfterReplay(t *testing.T) {
	dir := t.TempDir()
	const dim = 3
	cfg := wal.Config{Options: core.Options{Seed: 19}}
	mgr, _, err := wal.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := buildIndex(t, 300, dim, 19)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	s := server.New(base, server.Config{WAL: mgr})
	ctx := context.Background()
	if err := s.Insert(ctx, []core.Record{{ID: 9000, Vector: []float64{3, -1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	live := s.Snapshot()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // no checkpoint: restart replays
		t.Fatal(err)
	}

	mgr2, rec, err := wal.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if rec.ClusterCompactor() != nil || rec.DeltaLen() != 2 {
		t.Fatalf("recovered compactor %v, delta %d; want none and 2", rec.ClusterCompactor(), rec.DeltaLen())
	}
	c, err := hierarchy.Attach(rec, hierarchy.CompactorOptions{Clusters: 3, Seed: 19})
	if err != nil {
		t.Fatalf("Attach over the replayed delta: %v", err)
	}
	if c.Len() != 300 {
		t.Fatalf("compactor clusters %d records, want the 300 base records", c.Len())
	}
	folded, err := rec.CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	fc, ok := folded.ClusterCompactor().(*hierarchy.Compactor)
	if !ok || folded.HasDelta() {
		t.Fatalf("fold left compactor %T, delta %v", folded.ClusterCompactor(), folded.HasDelta())
	}
	if st := fc.Stats(); st.Inserts != 1 || st.Deletes != 1 || st.Refolded == 0 {
		t.Fatalf("fold stats %+v, want one insert and one delete refolded", st)
	}
	if got, want := folded.ContentFingerprint(), live.ContentFingerprint(); got != want {
		t.Fatalf("folded content %s, want %s", got, want)
	}
	for _, w := range [][]float64{{0.6, 0.4, 0.1}, {-1, 0.2, 0.7}} {
		want, _, _ := live.TopN(w, 20)
		got, _, _ := folded.TopN(w, 20)
		if len(got) != len(want) {
			t.Fatalf("folded top-20 has %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				t.Fatalf("folded rank %d = (%d, %v), live = (%d, %v)", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}
