package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// The real-mmap tests are skipped under the race detector and run in
// CI's separate non-race pass: the mapped extents are plain read-only
// pages the detector cannot instrument, so a race build would only
// re-test the heap fallback the rest of the suite already covers.

func writeMappedFixture(t *testing.T, ix *core.Index, aux []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "checkpoint-test.onion")
	if err := WriteFS(vfs.OS{}, path, ix, aux); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMappedV2ServesIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("real mmap runs in the non-race CI pass")
	}
	ix := buildShellIndex(t, 700, 3, 21)
	path := writeMappedFixture(t, ix, []byte("aux payload"))
	mp, err := OpenMappedV2(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.Dim() != 3 || mp.Records() != ix.Len() {
		t.Fatalf("mapped header: dim=%d records=%d", mp.Dim(), mp.Records())
	}
	if !bytes.Equal(mp.Aux(), []byte("aux payload")) {
		t.Fatalf("aux through the mapping: %q", mp.Aux())
	}
	got, err := mp.Index(core.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("content fingerprint changed through the mmap path")
	}
	assertSameAnswers(t, ix, got, 3, 10)
	if mp.ExtentsTouched() == 0 {
		t.Fatal("queries ran but no extent touches were recorded")
	}
}

func TestMappedV2BudgetEviction(t *testing.T) {
	if raceEnabled {
		t.Skip("real mmap runs in the non-race CI pass")
	}
	ix := buildShellIndex(t, 2500, 3, 31)
	path := writeMappedFixture(t, ix, nil)
	// A budget far below the file size forces the LRU-of-layers loop to
	// evict on nearly every deep walk.
	budget := int64(4 * PageSize)
	mp, err := OpenMappedV2(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	got, err := mp.Index(core.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Deep queries (large N) walk most layers, cycling extents through
	// the budget.
	for _, w := range workload.QueryWeights(8, 3, 5) {
		if _, _, err := got.TopN(w, 400); err != nil {
			t.Fatal(err)
		}
	}
	if mp.Evictions() == 0 {
		t.Fatal("budget pressure produced no evictions")
	}
	if rb := mp.ResidentBytes(); rb > mp.SizeBytes() {
		t.Fatalf("resident bytes %d exceed the file size %d", rb, mp.SizeBytes())
	}
	if mp.MajorFaultsEst() == 0 {
		t.Fatal("no estimated faults recorded despite evict/refault cycles")
	}
	vars := mp.Vars().String()
	for _, key := range []string{"mmap_extents_mapped", "mmap_evictions", "mmap_resident_bytes", "mmap_major_faults_est"} {
		if !strings.Contains(vars, key) {
			t.Errorf("Vars() missing %s: %s", key, vars)
		}
	}
}

func TestMappedV2RejectsCorruptFile(t *testing.T) {
	if raceEnabled {
		t.Skip("real mmap runs in the non-race CI pass")
	}
	ix := buildIndex(t, 100, 3, 41)
	path := writeMappedFixture(t, ix, nil)
	data, err := vfs.OS{}.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[v2HeaderBytes] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMappedV2(path, 0); err == nil {
		t.Fatal("corrupt file mapped without error")
	}
}
