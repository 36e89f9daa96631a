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

// TestV1ToV2Migration recovers data directories whose checkpoint is one
// of the v1 files in internal/storage/testdata (written by the v1
// writer, so their content fingerprints are pinned there too): with
// and without Mmap the v1 file decodes on the heap with its content
// intact, the next rotation rewrites it as v2, and the reopen after
// that serves from the mapping.
func TestV1ToV2Migration(t *testing.T) {
	for _, fx := range []struct{ name, content string }{
		{"v1-3d.onion", "03e9d1c235c3fdba"},
		{"v1-4d-maintained.onion", "9606a484b0e16132"},
		{"v1-2d-empty.onion", "c615adcb76ddf8a7"},
		{"v1-3d-delta-count.onion", "764871c5ed06d1d3"},
	} {
		for _, mmap := range []bool{false, true} {
			dir := t.TempDir()
			v1, err := os.ReadFile(filepath.Join("..", "storage", "testdata", fx.name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, checkpointName(1)), v1, 0o644); err != nil {
				t.Fatal(err)
			}
			mgr, ix, err := Open(dir, Config{Mmap: mmap, Options: core.Options{Seed: 23}})
			if err != nil {
				t.Fatalf("%s mmap=%v: %v", fx.name, mmap, err)
			}
			if mgr.Mapped() != nil {
				t.Fatalf("%s: a v1 checkpoint must not map", fx.name)
			}
			if ix.ContentFingerprint() != fx.content {
				t.Fatalf("%s mmap=%v: recovery changed the content fingerprint", fx.name, mmap)
			}
			// The next rotation migrates the directory to v2...
			if err := mgr.Checkpoint(ix); err != nil {
				t.Fatal(err)
			}
			mgr.Close()
			if v := checkpointVersion(t, dir); v != 2 {
				t.Fatalf("%s: post-migration checkpoint format = v%d, want v2", fx.name, v)
			}
			// ...and the reopen after that serves from the mapping.
			mgr2, ix2, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 23}})
			if err != nil {
				t.Fatal(err)
			}
			if mgr2.Mapped() == nil {
				t.Fatalf("%s: migrated v2 checkpoint did not map", fx.name)
			}
			if ix2.ContentFingerprint() != fx.content {
				t.Fatalf("%s: migration changed the content fingerprint", fx.name)
			}
			mgr2.Close()
			mgr2.Mapped().Close()
		}
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
