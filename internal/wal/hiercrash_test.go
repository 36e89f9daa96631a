// Crash torture for the hierarchical compaction path: the byte-offset
// power-loss sweep of crash_test.go, run against a server whose index
// carries a hierarchy.Compactor and whose delta threshold is low
// enough that background per-cluster folds are in flight while the
// mutation stream commits. The WAL never frames a fold (compaction is
// derived state), so recovery — which replays the log through the
// synchronous cascades onto a flat index — must land on the identical
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
