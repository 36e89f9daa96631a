package storage

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// TestWriteSurvivesCrash pins the fsync discipline of WriteFS against a
// power-loss simulator: an index "saved" by WriteFS must be fully
// readable after a crash that drops everything not explicitly synced.
func TestWriteSurvivesCrash(t *testing.T) {
	ix := buildIndex(t, 500, 3, 41)
	fs := vfs.NewCrashFS()
	if err := fs.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFS(fs, "/data/index.onion", ix, nil); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	data, err := fs.ReadFile("/data/index.onion")
	if err != nil {
		t.Fatalf("saved index gone after crash: %v", err)
	}
	got, _, err := LoadBytes(data, core.Options{})
	if err != nil {
		t.Fatalf("saved index unreadable after crash: %v", err)
	}
	if got.Len() != ix.Len() || got.NumLayers() != ix.NumLayers() {
		t.Fatalf("recovered %d records / %d layers, want %d / %d",
			got.Len(), got.NumLayers(), ix.Len(), ix.NumLayers())
	}
	w := []float64{1, 1, 1}
	want, _, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := got.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("recovered %v, want %v", res, want)
	}

	// Negative control: the same write WITHOUT the sync discipline loses
	// the file — proving the simulator actually models power loss and the
	// test above is not vacuous.
	fs2 := vfs.NewCrashFS()
	if err := fs2.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	data2, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs2.OpenFile("/data/unsynced.onion", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data2); err != nil {
		t.Fatal(err)
	}
	f.Close() // no Sync, no SyncDir
	fs2.Crash()
	if _, err := fs2.ReadFile("/data/unsynced.onion"); err == nil {
		t.Fatal("unsynced write survived the crash; the simulator is too forgiving to catch fsync regressions")
	}
}

// TestDiskIndexMatchesMemoryProperty is the storage round-trip property
// test. In 2D–6D, with shells on and off, and with a delta pending at
// the write or none, a written file must answer top-N queries through
// the heap decode and through the mapping exactly as the in-memory
// index it came from: the same IDs and score bits in the same order,
// and — against the folded state the file holds — the same layers and
// work statistics. Maintenance on the decoded index must then still
// match brute force.
func TestDiskIndexMatchesMemoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for d := 2; d <= 6; d++ {
		for _, shells := range []bool{false, true} {
			for _, delta := range []bool{false, true} {
				name := fmt.Sprintf("d=%d shells=%v delta=%v", d, shells, delta)
				n := 1 + rng.Intn(400)
				seed := rng.Int63()
				ix := buildIndex(t, n, d, seed)
				ix.SetShellPruning(shells)
				folded := ix
				if delta {
					ix = ix.CloneDelta()
					add := workload.Points(workload.Gaussian, 1+rng.Intn(20), d, seed+1)
					recs := make([]core.Record, len(add))
					for i, p := range add {
						recs[i] = core.Record{ID: uint64(n + 1 + i), Vector: p}
					}
					if err := ix.InsertDelta(recs); err != nil {
						t.Fatal(err)
					}
					if _, err := ix.DeleteDelta([]uint64{1, uint64(n/2 + 1)}, true); err != nil {
						t.Fatal(err)
					}
					var err error
					if folded, err = ix.CompactedClone(); err != nil {
						t.Fatal(err)
					}
				}
				path := writeFile(t, ix, nil)
				loaded, err := Load(path)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mp, err := OpenMappedV2(path, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mapped, err := mp.Index(core.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if loaded.ShellPruning() != shells || mapped.ShellPruning() != shells {
					t.Fatalf("%s: shell mode came back %v (load) %v (mmap)", name, loaded.ShellPruning(), mapped.ShellPruning())
				}
				for q := 0; q < 5; q++ {
					w := make([]float64, d)
					for j := range w {
						w[j] = rng.NormFloat64()
					}
					topn := 1 + rng.Intn(n+3) // sometimes > n records
					want, _, err := ix.TopN(w, topn)
					if err != nil {
						t.Fatal(err)
					}
					wantRes, wantStats, err := folded.TopN(w, topn)
					if err != nil {
						t.Fatal(err)
					}
					for path, got := range map[string]*core.Index{"load": loaded, "mmap": mapped} {
						res, st, err := got.TopN(w, topn)
						if err != nil {
							t.Fatal(err)
						}
						if len(res) != len(want) {
							t.Fatalf("%s query %d via %s: %d results, %d in memory", name, q, path, len(res), len(want))
						}
						for i := range want {
							if res[i].ID != want[i].ID || math.Float64bits(res[i].Score) != math.Float64bits(want[i].Score) {
								t.Fatalf("%s query %d via %s rank %d: %+v, in memory %+v", name, q, path, i, res[i], want[i])
							}
						}
						if !reflect.DeepEqual(res, wantRes) || st != wantStats {
							t.Fatalf("%s query %d via %s: stats %+v, folded index %+v", name, q, path, st, wantStats)
						}
					}
				}
				mp.Close()

				// The decoded index is mutable: its layers and slabs share
				// positions, and maintenance must not disturb either.
				recs := loaded.Records()
				if len(recs) > 2 {
					if err := loaded.DeleteBatch([]uint64{recs[0].ID, recs[len(recs)/2].ID}); err != nil {
						t.Fatalf("%s: delete after load: %v", name, err)
					}
				}
				add := workload.Points(workload.Uniform, 3, d, seed+2)
				for i, p := range add {
					if err := loaded.Insert(core.Record{ID: uint64(10_000 + i), Vector: p}); err != nil {
						t.Fatalf("%s: insert after load: %v", name, err)
					}
				}
				for _, w := range workload.QueryWeights(3, d, seed+3) {
					assertMatchesBrute(t, name+" after maintenance", loaded, w, 15)
				}
			}
		}
	}
}

// TestDiskIndexEdgeCases covers the shapes random trials can miss:
// a single record, a single layer, and the zero-layer empty index a
// delete-all leaves behind.
func TestDiskIndexEdgeCases(t *testing.T) {
	roundTrip := func(t *testing.T, ix *core.Index) (*core.Index, *core.Index) {
		t.Helper()
		path := writeFile(t, ix, nil)
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := OpenMappedV2(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mp.Close() })
		mapped, err := mp.Index(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return loaded, mapped
	}

	t.Run("single record", func(t *testing.T) {
		loaded, mapped := roundTrip(t, buildIndex(t, 1, 3, 7))
		for _, got := range []*core.Index{loaded, mapped} {
			res, _, err := got.TopN([]float64{1, 2, 3}, 5)
			if err != nil || len(res) != 1 || res[0].ID != 1 {
				t.Fatalf("single-record query: %+v, %v", res, err)
			}
		}
	})

	t.Run("single layer", func(t *testing.T) {
		// d+1 points in general position form one hull, one layer.
		pts := workload.Points(workload.Gaussian, 4, 3, 21)
		recs := make([]core.Record, len(pts))
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumLayers() != 1 {
			t.Fatalf("expected 1 layer, got %d", ix.NumLayers())
		}
		loaded, mapped := roundTrip(t, ix)
		w := []float64{1, -1, 0.5}
		want, _, _ := ix.TopN(w, 4)
		for _, got := range []*core.Index{loaded, mapped} {
			res, _, err := got.TopN(w, 4)
			if err != nil || !reflect.DeepEqual(res, want) {
				t.Fatalf("single-layer query: %v, %v; want %v", res, err, want)
			}
		}
	})

	t.Run("empty after delete-all", func(t *testing.T) {
		ix := buildIndex(t, 20, 2, 31)
		ids := make([]uint64, 0, ix.Len())
		for _, r := range ix.Records() {
			ids = append(ids, r.ID)
		}
		if err := ix.DeleteBatch(ids); err != nil {
			t.Fatal(err)
		}
		loaded, mapped := roundTrip(t, ix)
		for _, got := range []*core.Index{loaded, mapped} {
			if got.Len() != 0 || got.NumLayers() != 0 || got.Dim() != 2 {
				t.Fatalf("empty index round trip: len=%d layers=%d dim=%d", got.Len(), got.NumLayers(), got.Dim())
			}
			res, _, err := got.TopN([]float64{1, 1}, 3)
			if err != nil || len(res) != 0 {
				t.Fatalf("query on empty index: %v, %v", res, err)
			}
		}
		if err := loaded.Insert(core.Record{ID: 7, Vector: []float64{1, 2}}); err != nil {
			t.Fatalf("insert into the reloaded empty index: %v", err)
		}
		if res, _, err := loaded.TopN([]float64{1, 1}, 3); err != nil || len(res) != 1 || res[0].ID != 7 {
			t.Fatalf("query after insert: %v, %v", res, err)
		}
	})
}
