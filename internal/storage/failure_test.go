package storage

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
)

// openTruncatable writes ix, maps it, and returns the mapped store, its
// index (sequential, so every read stays on the test goroutine) and a
// function that truncates the file under the live mapping to its
// directory pages. It skips the test off Linux, where vfs reads the
// file onto the heap and a truncation never reaches the open store.
func openTruncatable(t *testing.T, ix *core.Index) (*MappedV2, *core.Index, func()) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("only a Linux mmap sees the truncation")
	}
	path := writeFile(t, ix, nil)
	mp, err := OpenMappedV2(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mp.Close() })
	mapped, err := mp.Index(core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return mp, mapped, func() {
		if err := os.Truncate(path, int64(mp.dir.dirPages*PageSize)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuerySurfacesIOErrors: a file truncated under a live mapping turns
// the next query into an error, not a SIGBUS that kills the process,
// and the store stays quarantined afterwards.
func TestQuerySurfacesIOErrors(t *testing.T) {
	mp, ix, truncate := openTruncatable(t, buildIndex(t, 1000, 3, 9))
	w := []float64{1, 1, 1}
	var res []core.Result
	var qerr error
	if err := mp.Guard(func() { res, _, qerr = ix.TopN(w, 1) }); err != nil || qerr != nil || len(res) != 1 {
		t.Fatalf("top-1 before truncation: %v, %v, %v", res, err, qerr)
	}
	truncate()
	err := mp.Guard(func() { res, _, qerr = ix.TopN(w, 500) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deep query over a truncated file: %v, want ErrCorrupt", err)
	}
	ran := false
	if err2 := mp.Guard(func() { ran = true }); !errors.Is(err2, ErrCorrupt) || ran {
		t.Fatalf("after the fault Guard ran fn (%v) and returned %v", ran, err2)
	}
	// Panics that are not memory faults are not swallowed.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Guard swallowed an ordinary panic")
			}
		}()
		mp2, _, _ := openTruncatable(t, buildIndex(t, 50, 2, 1))
		mp2.Guard(func() { panic("not a fault") })
	}()
}

// TestSearcherErrStopsStream: a progressive stream that has delivered
// results stops with an error once the file is truncated under it, and
// a closed store refuses further reads.
func TestSearcherErrStopsStream(t *testing.T) {
	mp, ix, truncate := openTruncatable(t, buildIndex(t, 1000, 3, 10))
	s := ix.NewSearcher([]float64{1, 0, 0}, 0)
	count := 0
	next := func() (ok bool, err error) {
		err = mp.Guard(func() { _, ok = s.Next() })
		return ok, err
	}
	for count < 3 {
		if ok, err := next(); !ok || err != nil {
			t.Fatalf("result %d before truncation: %v, %v", count, ok, err)
		}
		count++
	}
	truncate()
	var err error
	for {
		var ok bool
		if ok, err = next(); !ok || err != nil {
			break
		}
		count++
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream over a truncated file ended with %v after %d results, want ErrCorrupt", err, count)
	}

	mp2, ix2, _ := openTruncatable(t, buildIndex(t, 100, 3, 11))
	mp2.Close()
	if err := mp2.Guard(func() { ix2.TopN([]float64{1, 0, 0}, 5) }); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("query after Close: %v, want fs.ErrClosed", err)
	}
}

// TestLoadSurfacesErrors: a truncated file of either format fails to
// load instead of returning a partial index.
func TestLoadSurfacesErrors(t *testing.T) {
	v2, err := MarshalV2(buildIndex(t, 300, 2, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"v1": readFixture(t, "v1-3d.onion"),
		"v2": v2,
	} {
		path := filepath.Join(t.TempDir(), name+".onion")
		if err := os.WriteFile(path, data[:len(data)-2*PageSize], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated %s file: %v, want ErrCorrupt", name, err)
		}
	}
}
