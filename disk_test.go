package onion

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestSaveLoadEmptiedIndex: an index whose records were all deleted
// saves, loads back as an empty index that accepts inserts, and opens
// from disk as an index that answers nothing.
func TestSaveLoadEmptiedIndex(t *testing.T) {
	recs, _ := testRecords(workload.Gaussian, 4, 3, 1)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := ix.Delete(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "empty.onion")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("load of a saved empty index: %v", err)
	}
	if back.Len() != 0 || back.Dim() != 3 {
		t.Fatalf("loaded %d records of dimension %d", back.Len(), back.Dim())
	}
	if err := back.Insert(Record{ID: 7, Vector: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if top, err := back.TopN([]float64{1, 1, 1}, 3); err != nil || len(top) != 1 || top[0].ID != 7 || top[0].Score != 6 {
		t.Fatalf("top after insert: %v, %v", top, err)
	}

	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.Len() != 0 || di.NumLayers() != 0 || di.Dim() != 3 {
		t.Fatalf("disk header: len=%d layers=%d dim=%d", di.Len(), di.NumLayers(), di.Dim())
	}
	res, st, io, err := di.TopN([]float64{1, 1, 1}, 3)
	if err != nil || len(res) != 0 || st != (QueryStats{}) || io != (IOStats{}) {
		t.Fatalf("empty disk query: %v %+v %+v %v", res, st, io, err)
	}
}

// TestSaveLoadKeepsShellMode: the shell tables travel in the file, so a
// Loaded and an OpenDisk index of a shell-mode index still walk their
// layers through them and answer bit-identically to the saved index.
func TestSaveLoadKeepsShellMode(t *testing.T) {
	recs, _ := testRecords(workload.Uniform, 500, 3, 2)
	ix, err := Build(recs, Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shells.onion")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ShellPruning() {
		t.Fatal("Load dropped shell mode")
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	for _, w := range workload.QueryWeights(8, 3, 3) {
		want, wst, err := ix.TopNStats(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := back.TopNStats(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		dres, dst, _, err := di.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if gst.ShellLayers == 0 || dst.ShellLayers == 0 {
			t.Fatalf("weights %v: no layer walked through its shell table (load %+v, disk %+v)", w, gst, dst)
		}
		if gst != wst || dst != wst {
			t.Fatalf("weights %v: stats load %+v disk %+v, saved index %+v", w, gst, dst, wst)
		}
		for i := range want {
			for _, r := range []Result{got[i], dres[i]} {
				if r.ID != want[i].ID || r.Layer != want[i].Layer || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("weights %v rank %d: %+v, saved index %+v", w, i, r, want[i])
				}
			}
		}
	}
}

// TestOpenDiskSurvivesTruncation truncates the file under an open
// DiskIndex: the next TopN and the next DiskStream.Next return errors
// instead of killing the process with SIGBUS, the index stays failed,
// and Close makes every later query an error too.
func TestOpenDiskSurvivesTruncation(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("only a Linux mmap sees the truncation; elsewhere OpenDisk reads the file onto the heap")
	}
	recs, _ := testRecords(workload.Gaussian, 3000, 3, 3)
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
	w := []float64{0.3, 0.3, 0.4}
	if res, _, _, err := di.TopN(w, 1); err != nil || len(res) != 1 {
		t.Fatalf("top-1 before truncation: %v, %v", res, err)
	}
	stream, err := di.Search(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stream.Next(); !ok {
		t.Fatalf("stream before truncation: %v", stream.Err())
	}
	if err := os.Truncate(path, storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := di.TopN(w, 200); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("TopN over a truncated file: %v, want storage.ErrCorrupt", err)
	}
	for {
		if _, ok := stream.Next(); !ok {
			break
		}
	}
	if !errors.Is(stream.Err(), storage.ErrCorrupt) {
		t.Fatalf("stream over a truncated file ended with %v, want storage.ErrCorrupt", stream.Err())
	}
	if res, _, _, err := di.TopN(w, 1); err == nil {
		t.Fatalf("a query after the fault succeeded: %v", res)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := di.TopN(w, 1); err == nil {
		t.Fatal("a query after Close succeeded")
	}
}

// TestOpenDiskCloseWaitsForQueries closes a DiskIndex while TopN runs
// on other goroutines: every query either returns the full answer or
// fails with fs.ErrClosed. None reads the mapping after Close removed
// it, which would fault (ErrCorrupt) or read whatever was mapped there
// next.
func TestOpenDiskCloseWaitsForQueries(t *testing.T) {
	recs, _ := testRecords(workload.Gaussian, 3000, 3, 4)
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
	w := []float64{0.2, 0.5, 0.3}
	want, err := ix.TopN(w, 300)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	started := make(chan struct{}, workers)
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func() {
			for q := 0; ; q++ {
				got, _, _, err := di.TopN(w, 300)
				if q == 0 {
					started <- struct{}{}
				}
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						errs <- fmt.Errorf("query %d rank %d: %+v, want %+v", q, i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	for g := 0; g < workers; g++ {
		<-started
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; !errors.Is(err, fs.ErrClosed) {
			t.Errorf("a query racing Close: %v, want fs.ErrClosed", err)
		}
	}
}

// TestOpenDiskRejectsV1: a format v1 file does not open from disk; the
// error says so, and Load followed by Save makes it openable.
func TestOpenDiskRejectsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.onion")
	data, err := os.ReadFile(filepath.Join("internal", "storage", "testdata", "v1-3d.onion"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); !errors.Is(err, storage.ErrBadVersion) {
		t.Fatalf("OpenDisk of a v1 file: %v, want storage.ErrBadVersion", err)
	}
	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	w := []float64{1, 2, 3}
	want, err := ix.TopN(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := di.TopN(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "migrated v1 file", got, want)
}
