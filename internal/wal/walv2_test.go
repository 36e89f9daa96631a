package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/storage"
)

// Checkpoint-v2 and mmap-serving integration tests. These run against
// the real filesystem (t.TempDir): the mmap path needs an actual file
// descriptor, and the crash-torture suite already covers the
// fault-injected variants through CrashFS (which deliberately does not
// implement vfs.Mapper, so torture exercises the heap decode of the
// same v2 bytes).

func checkpointFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.onion"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one checkpoint, got %v (%v)", names, err)
	}
	return names[0]
}

func checkpointVersion(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(checkpointFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	v, err := storage.FormatVersion(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCheckpointV2DefaultAndMmapReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 500, 3, 17), core.Options{Seed: 17, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if v := checkpointVersion(t, dir); v != 2 {
		t.Fatalf("default checkpoint format = v%d, want v2", v)
	}

	// Heap reopen: version-sniffed decode.
	mgr2, ix2, err := Open(dir, Config{Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Mapped() != nil {
		t.Fatal("heap reopen produced a mapping")
	}
	if ix2.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("heap reopen changed the content fingerprint")
	}
	mgr2.Close()

	// Mmap reopen: served straight from the mapping, same answers.
	mgr3, ix3, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if mgr3.Mapped() == nil {
		t.Fatal("mmap reopen of a v2 checkpoint did not map")
	}
	if mgr3.MmapVars() == nil {
		t.Fatal("mapped manager exports no mmap vars")
	}
	if ix3.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("mmap reopen changed the content fingerprint")
	}
	for _, w := range [][]float64{{1, 0.5, -0.2}, {-1, 2, 0}} {
		want, _, err := ix.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix3.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mmap-served results diverge for %v", w)
		}
	}
}

func TestV1ToV2Migration(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 300, 3, 23), core.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := Open(dir, Config{CheckpointV1: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if v := checkpointVersion(t, dir); v != 1 {
		t.Fatalf("CheckpointV1 wrote format v%d", v)
	}

	// Mmap config against a v1 checkpoint: decode fallback, no mapping,
	// identical state.
	mgr2, ix2, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Mapped() != nil {
		t.Fatal("v1 checkpoint must not map")
	}
	if ix2.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("v1 load under Mmap changed the content fingerprint")
	}
	// The next rotation migrates the directory to v2...
	if err := mgr2.Checkpoint(ix2); err != nil {
		t.Fatal(err)
	}
	mgr2.Close()
	if v := checkpointVersion(t, dir); v != 2 {
		t.Fatalf("post-migration checkpoint format = v%d, want v2", v)
	}
	// ...and the reopen after that serves from the mapping.
	mgr3, ix3, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if mgr3.Mapped() == nil {
		t.Fatal("migrated v2 checkpoint did not map")
	}
	if ix3.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("migration changed the content fingerprint")
	}
}

// TestTornV2CheckpointFallsBack simulates the one crash window the
// atomic-replace discipline leaves: a rotation that died after the new
// epoch's checkpoint appeared under its real name but before its bytes
// were complete. Recovery must reject the torn v2 file on CRC/extent
// validation and fall back to the previous epoch — under both the heap
// and mmap read paths.
func TestTornV2CheckpointFallsBack(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		ix, err := core.Build(testRecords(t, 250, 3, 29), core.Options{Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Bootstrap(ix); err != nil {
			t.Fatal(err)
		}
		mgr.Close()

		// Forge the next epoch's checkpoint as a torn v2 write: intact
		// directory pages, missing extents.
		full, err := storage.MarshalV2(ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		torn := full[:storage.PageSize]
		tornPath := filepath.Join(dir, "checkpoint-0000000000000002.onion")
		if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}

		mgr2, ix2, err := Open(dir, Config{Mmap: mmap, Options: core.Options{Seed: 29}})
		if err != nil {
			t.Fatalf("mmap=%v: recovery failed outright: %v", mmap, err)
		}
		if ix2.ContentFingerprint() != ix.ContentFingerprint() {
			t.Fatalf("mmap=%v: fell back to the wrong state", mmap)
		}
		if mgr2.Seq() != 1 {
			t.Fatalf("mmap=%v: recovered epoch %d, want 1", mmap, mgr2.Seq())
		}
		mgr2.Close()
	}
}

// TestCompactorPersistsAcrossRestart pins satellite behavior of the v2
// aux blob: a hierarchical-compaction cluster assignment survives a
// clean-shutdown restart without re-running k-means or re-peeling, and
// a fold after the restart is bit-identical to one without it.
func TestCompactorPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(t, 400, 3, 37)
	ix, err := core.Build(recs, core.Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := hierarchy.Attach(ix, hierarchy.CompactorOptions{Clusters: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	wantSpec, err := cc.EncodeSpec()
	if err != nil {
		t.Fatal(err)
	}

	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2, ix2, err := Open(dir, Config{Options: core.Options{Seed: 37}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	restored := ix2.ClusterCompactor()
	if restored == nil {
		t.Fatal("cluster assignment did not survive the restart")
	}
	// Byte-equal spec = same centers, same ownership, same per-cluster
	// layering: nothing was re-clustered or re-peeled.
	enc, ok := restored.(interface{ EncodeSpec() ([]byte, error) })
	if !ok {
		t.Fatalf("restored compactor %T cannot re-encode", restored)
	}
	gotSpec, err := enc.EncodeSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSpec, gotSpec) {
		t.Fatal("restart re-derived a different cluster assignment")
	}

	// Fold the same delta on the never-restarted and restarted indexes:
	// the successors must agree exactly.
	apply := func(target *core.Index) string {
		t.Helper()
		fresh := testRecords(t, 10, 3, 41)
		for i := range fresh {
			fresh[i].ID += 10_000
		}
		if err := target.InsertDelta(fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := target.DeleteDelta([]uint64{5, 17, 230}, false); err != nil {
			t.Fatal(err)
		}
		if err := target.Compact(); err != nil {
			t.Fatal(err)
		}
		if target.ClusterCompactor() == nil {
			t.Fatal("fold dropped the compactor")
		}
		return target.Fingerprint()
	}
	if a, b := apply(ix), apply(ix2); a != b {
		t.Fatalf("restart-then-fold diverged from fold: %s vs %s", a, b)
	}
}

// TestRecoveredShellIndexKeepsSlabs: a shell-mode checkpoint plus one
// logged insert frame and one logged delete frame recovers — decoded on
// the heap and served from the mapping — an index that still evaluates
// layers through its shell tables and answers exactly like the index
// the log described before the crash.
func TestRecoveredShellIndexKeepsSlabs(t *testing.T) {
	opt := core.Options{Seed: 29, Shells: true}
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		ix, err := core.Build(testRecords(t, 600, 3, 29), opt)
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := Open(dir, Config{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Bootstrap(ix); err != nil {
			t.Fatal(err)
		}
		next := ix.Clone()
		ins := []core.Record{{ID: 5000, Vector: []float64{4, 4, 4}}}
		if err := next.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
		if err := mgr.CommitBatch([]Mutation{{Insert: ins}}, next); err != nil {
			t.Fatal(err)
		}
		if err := next.DeleteBatch([]uint64{3}); err != nil {
			t.Fatal(err)
		}
		if err := mgr.CommitBatch([]Mutation{{Delete: []uint64{3}}}, next); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}

		mgr2, rec, err := Open(dir, Config{Mmap: mmap, CheckpointBytes: -1, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		if mmap && mgr2.Mapped() == nil {
			t.Fatal("mmap reopen did not map the checkpoint")
		}
		for _, w := range [][]float64{{1, 0.5, -0.2}, {-1, 2, 0}, {0.3, 0.3, 0.3}} {
			want, _, err := next.TopN(w, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := rec.TopN(w, 10)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShellLayers == 0 {
				t.Fatalf("mmap=%v weights %v: recovered index evaluated no layer through its shell table (%+v)", mmap, w, st)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("mmap=%v weights %v: recovered %v, want %v", mmap, w, got, want)
			}
		}
		mgr2.Close()
	}
}
