package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func buildIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeFile saves ix as a v2 file in a fresh temporary directory.
func writeFile(t *testing.T, ix *core.Index, aux []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.onion")
	if err := WriteFS(vfs.OS{}, path, ix, aux); err != nil {
		t.Fatal(err)
	}
	return path
}

// readFixture returns a file from testdata/.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	return readFile(t, filepath.Join("testdata", name))
}

// bruteTopN ranks recs on the total order (score descending, ID
// ascending), scoring exactly as the slab kernels do.
func bruteTopN(recs []core.Record, w []float64, n int) []core.Result {
	out := make([]core.Result, len(recs))
	for i, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		out[i] = core.Result{ID: r.ID, Score: s}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Score > out[j-1].Score || out[j].Score == out[j-1].Score && out[j].ID < out[j-1].ID); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out[:min(n, len(out))]
}

// assertMatchesBrute requires ix's top-n to equal brute force over its
// own records in IDs and score bits.
func assertMatchesBrute(t *testing.T, name string, ix *core.Index, w []float64, n int) {
	t.Helper()
	got, _, err := ix.TopN(w, n)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTopN(ix.Records(), w, n)
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, brute force %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: %+v, brute force %+v", name, i, got[i], want[i])
		}
	}
}

func TestRecordSizesMatchPaper(t *testing.T) {
	if RecordSize(3) != 32 {
		t.Errorf("3D record = %d bytes, paper says 32", RecordSize(3))
	}
	if RecordSize(4) != 40 {
		t.Errorf("4D record = %d bytes, paper says 40", RecordSize(4))
	}
	if RecordsPerPage(3) != 128 {
		t.Errorf("3D records/page = %d, want 128", RecordsPerPage(3))
	}
	if RecordsPerPage(4) != 102 {
		t.Errorf("4D records/page = %d, want 102", RecordsPerPage(4))
	}
}

func TestScanCostMatchesPaper(t *testing.T) {
	// "The I/O cost of scanning 1,000,000 records is fixed at 8,000
	// sequential access for the 3D data and 10,000 access for the 4D."
	if got := ScanCost(1_000_000, 3); got != 7813 {
		// 1e6/128 = 7812.5 -> 7813 pages; the paper rounds to 8,000.
		t.Logf("3D scan = %v pages (paper rounds to 8,000)", got)
		if got < 7500 || got > 8000 {
			t.Errorf("3D scan cost %v out of the paper's ballpark", got)
		}
	}
	got4 := ScanCost(1_000_000, 4)
	if got4 < 9800 || got4 > 10000 {
		t.Errorf("4D scan cost %v, paper says ~10,000", got4)
	}
}

// TestMarshalRoundTrip: every layer comes back with the same records in
// the same order, and a plain index stores no position extents — its
// file is the directory, one vector extent per layer, and the IDs.
func TestMarshalRoundTrip(t *testing.T) {
	ix := buildIndex(t, 500, 3, 1)
	data, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%PageSize != 0 {
		t.Fatalf("file size %d not page aligned", len(data))
	}
	dir, err := parseV2(data)
	if err != nil {
		t.Fatal(err)
	}
	pages := dir.dirPages + pagesFor(8*ix.Len())
	for k := range dir.layers {
		if dir.layers[k].posLen != 0 {
			t.Fatalf("layer %d of a plain index stored a position extent", k+1)
		}
		pages += dir.layers[k].pages()
	}
	if pages*PageSize != len(data) {
		t.Fatalf("file is %d pages, directory + vectors + ids are %d", len(data)/PageSize, pages)
	}
	got, _, err := LoadV2Bytes(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != 3 || got.Len() != 500 || got.NumLayers() != ix.NumLayers() {
		t.Fatalf("header mismatch: dim=%d len=%d layers=%d", got.Dim(), got.Len(), got.NumLayers())
	}
	for k := 0; k < ix.NumLayers(); k++ {
		want, have := ix.Layer(k), got.Layer(k)
		if len(have) != len(want) {
			t.Fatalf("layer %d: %d records, want %d", k, len(have), len(want))
		}
		for i := range have {
			if have[i].ID != want[i].ID || !geom.Equal(have[i].Vector, want[i].Vector) {
				t.Fatalf("layer %d record %d: %+v != %+v", k, i, have[i], want[i])
			}
		}
	}
}

// TestWriteOpenFile: a written file answers through Load and through
// the mapping exactly as the index it was written from — results and
// work statistics alike.
func TestWriteOpenFile(t *testing.T) {
	ix := buildIndex(t, 300, 4, 2)
	path := writeFile(t, ix, nil)
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := OpenMappedV2(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mapped, err := mp.Index(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != 300 || mapped.Dim() != 4 {
		t.Fatalf("len=%d dim=%d", mapped.Len(), mapped.Dim())
	}
	w := []float64{0.25, 0.25, 0.25, 0.25}
	wantRes, wantStats, err := ix.TopN(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*core.Index{"load": loaded, "mmap": mapped} {
		gotRes, gotStats, err := got.TopN(w, 20)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats || !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: %v %+v, in memory %v %+v", name, gotRes, gotStats, wantRes, wantStats)
		}
	}
}

// TestWriteFoldsPendingDelta: a snapshot carrying a delta buffer (the
// server's normal state between folds) must save its logical content —
// delta inserts kept, tombstoned records gone — not its base layers.
func TestWriteFoldsPendingDelta(t *testing.T) {
	ix := buildIndex(t, 200, 3, 3).CloneDelta()
	if err := ix.InsertDelta([]core.Record{{ID: 1000, Vector: []float64{5, 5, 5}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDelta([]uint64{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	want := ix.ContentFingerprint()
	path := filepath.Join(t.TempDir(), "delta.onion")
	if err := Write(path, ix); err != nil {
		t.Fatal(err)
	}
	if !ix.HasDelta() || ix.ContentFingerprint() != want {
		t.Fatal("Write changed the index it saved")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 198 || got.ContentFingerprint() != want {
		t.Fatalf("reloaded %d records (content %s), want 198 (%s)", got.Len(), got.ContentFingerprint(), want)
	}
	if k, ok := got.LayerOf(1000); !ok || k != 0 {
		t.Fatalf("delta insert reloaded at layer %d (present %v), want layer 0", k, ok)
	}
}

// TestIOAccounting: a walk through the mapping costs one random access
// per layer it enters plus that layer's extent pages.
func TestIOAccounting(t *testing.T) {
	for _, shells := range []bool{false, true} {
		ix := buildIndex(t, 2000, 3, 3)
		ix.SetShellPruning(shells)
		mp, err := OpenMappedV2(writeFile(t, ix, nil), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Close()
		mapped, err := mp.Index(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := []float64{1, 1, 1}
		before := mp.IO()
		_, stats, err := mapped.TopN(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		io := mp.IO()
		// Top-1 touches exactly layer 1: one seek, its pages sequential —
		// the vectors at 8·d bytes each, plus its positions in shell mode.
		n0 := ix.LayerSize(0)
		wantPages := pagesFor(24 * n0)
		if shells {
			wantPages += pagesFor(8 * n0)
		}
		if stats.LayersAccessed != 1 || io.RandomAccesses-before.RandomAccesses != 1 {
			t.Errorf("shells=%v: top-1 accessed %d layers with %d random accesses, want 1 (theorem 2)", shells, stats.LayersAccessed, io.RandomAccesses-before.RandomAccesses)
		}
		if got := io.SequentialReads - before.SequentialReads; got != wantPages {
			t.Errorf("shells=%v: top-1 sequential reads = %d, want %d", shells, got, wantPages)
		}

		// Theorem 2: top-N costs at most N random accesses, and every
		// access is a layer the walk evaluated.
		for _, n := range []int{5, 25, 100} {
			before := mp.IO()
			_, st, err := mapped.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			ra := mp.IO().RandomAccesses - before.RandomAccesses
			if ra > n || ra != st.LayersAccessed {
				t.Errorf("shells=%v: top-%d random accesses = %d, layers accessed %d (theorem 2 bound %d)", shells, n, ra, st.LayersAccessed, n)
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	s := IOStats{RandomAccesses: 3, SequentialReads: 40}
	if got := s.Cost(8); got != 64 {
		t.Errorf("cost = %v, want 64", got)
	}
	// Eq. 2 with 3D records: 128 records = exactly one page.
	if got := EstimateCost(1, 128, 3); got != 9 {
		t.Errorf("estimate = %v, want 8+1", got)
	}
}

func TestCorruptFiles(t *testing.T) {
	load := func(b []byte) error {
		_, _, err := LoadBytes(b, core.Options{})
		return err
	}
	if err := load(make([]byte, PageSize)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("zero page: %v, want ErrBadMagic", err)
	}
	bad := make([]byte, PageSize)
	copy(bad, []byte("NOTONION"))
	if err := load(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}
	// v1: truncated layer data, a layer extent past the end, a ragged
	// size and a zero dimension. (A header record count that disagrees
	// with the layers is not corruption: see v1-3d-delta-count.onion.)
	v1 := readFixture(t, "v1-3d.onion")
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)-PageSize] },
		"extent past end": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[24:], 1<<20); return b },
		"ragged":          func(b []byte) []byte { return append(b, 0) },
		"dimension":       func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 0); return b },
	} {
		if err := load(mutate(append([]byte(nil), v1...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("v1 %s: %v, want ErrCorrupt", name, err)
		}
	}
	// v2: a truncated file.
	data, err := MarshalV2(buildIndex(t, 100, 2, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(data[:len(data)-PageSize]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("v2 truncated: %v, want ErrCorrupt", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := OpenMappedV2(filepath.Join(t.TempDir(), "missing.onion"), 0); err == nil {
		t.Error("missing file opened")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.onion")); err == nil {
		t.Error("missing file loaded")
	}
	// Non-page-aligned file.
	path := filepath.Join(t.TempDir(), "ragged.onion")
	data, err := MarshalV2(buildIndex(t, 50, 3, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, make([]byte, 17)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMappedV2(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ragged file: %v, want ErrCorrupt", err)
	}
	// A v1 file is not an error to recover from but a different format:
	// the mapping path says so, and Load migrates it.
	v1 := filepath.Join(t.TempDir(), "v1.onion")
	if err := os.WriteFile(v1, readFixture(t, "v1-3d.onion"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMappedV2(v1, 0); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v1 file through the mapping: %v, want ErrBadVersion", err)
	}
	if _, err := Load(v1); err != nil {
		t.Errorf("v1 file through Load: %v", err)
	}
}

// TestManyLayersHeaderSpillover: a directory larger than one page
// round-trips, through the heap decode and the mapping alike.
func TestManyLayersHeaderSpillover(t *testing.T) {
	// 2D collinear diagonal points: each layer is the two endpoints, so
	// n points make n/2 layers, and 400 directory entries of 56 bytes
	// span six pages.
	n := 800
	recs := make([]core.Record, n)
	for i := 0; i < n; i++ {
		v := float64(i)
		recs[i] = core.Record{ID: uint64(i + 1), Vector: []float64{v, v}}
	}
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() < 350 {
		t.Fatalf("only %d layers; want 400", ix.NumLayers())
	}
	data, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := parseV2(data)
	if err != nil {
		t.Fatal(err)
	}
	if dir.dirPages < 2 {
		t.Fatalf("directory of %d layers fits %d page", ix.NumLayers(), dir.dirPages)
	}
	got, _, err := LoadV2Bytes(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLayers() != ix.NumLayers() || got.Fingerprint() != ix.Fingerprint() {
		t.Fatalf("layers %d != %d or partition changed", got.NumLayers(), ix.NumLayers())
	}
	if len(got.Layer(got.NumLayers()-1)) == 0 {
		t.Error("innermost layer empty")
	}
	assertMatchesBrute(t, "spillover", got, []float64{1, -0.5}, 30)
}

// TestEncodeDecodeRecords pins the v1 row layout the migrator reads:
// [id][vector] rows packed from the start of each page.
func TestEncodeDecodeRecords(t *testing.T) {
	recs := []core.Record{
		{ID: 1, Vector: []float64{1.5, -2.5, 3.5}},
		{ID: 1 << 40, Vector: []float64{0, 0, 0}},
	}
	buf := make([]byte, PageSize)
	for i, r := range recs {
		off := i * RecordSize(3)
		binary.LittleEndian.PutUint64(buf[off:], r.ID)
		for j, v := range r.Vector {
			binary.LittleEndian.PutUint64(buf[off+8+8*j:], math.Float64bits(v))
		}
	}
	back, err := decodeRecords(buf, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i].ID != recs[i].ID || !geom.Equal(back[i].Vector, recs[i].Vector) {
			t.Errorf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
	// 129 3D records need a second page.
	if _, err := decodeRecords(buf, RecordsPerPage(3)+1, 3); !errors.Is(err, ErrCorrupt) {
		t.Errorf("records past the page data: %v, want ErrCorrupt", err)
	}
}

// v1Fixtures are files written by the v1 writer (storage.Marshal) with
// the content and layer-partition fingerprints the v1 reader loaded
// from them: workload.Gaussian points with IDs from 1 — 80 in 3D (seed
// 7); 60 in 4D (seed 8) after DeleteBatch(2, 30, 59) and InsertBatch of
// 4 more (seed 9, IDs from 1001); 20 in 2D (seed 10) after deleting
// all. The last was written before Marshal folded a delta: 50 in 3D
// (seed 12) carrying unfolded InsertDelta of 2 (seed 13, IDs from 1001)
// and DeleteDelta(3, 17, 40), so its header counts 49 records while its
// layers hold the 50 base records — which is what it loads as.
var v1Fixtures = []struct {
	name, content, layering string
	records, dim            int
}{
	{"v1-3d.onion", "03e9d1c235c3fdba", "5651e871ba1f674f", 80, 3},
	{"v1-4d-maintained.onion", "9606a484b0e16132", "fee6a82eb2d15ce0", 61, 4},
	{"v1-2d-empty.onion", "c615adcb76ddf8a7", "a8c7f832281a39c5", 0, 2},
	{"v1-3d-delta-count.onion", "764871c5ed06d1d3", "56bccc033d36203c", 50, 3},
}

// TestLoadMigratesV1 reads every v1 fixture through Load: same records,
// same layer partition, exact answers, still mutable — and Write then
// stores it as v2 with nothing lost.
func TestLoadMigratesV1(t *testing.T) {
	for _, fx := range v1Fixtures {
		path := filepath.Join("testdata", fx.name)
		ix, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if ix.Len() != fx.records || ix.Dim() != fx.dim {
			t.Fatalf("%s: %d records of dimension %d, want %d of %d", fx.name, ix.Len(), ix.Dim(), fx.records, fx.dim)
		}
		if ix.ContentFingerprint() != fx.content || ix.Fingerprint() != fx.layering {
			t.Fatalf("%s: content %s layering %s, want %s %s", fx.name, ix.ContentFingerprint(), ix.Fingerprint(), fx.content, fx.layering)
		}
		w := workload.QueryWeights(1, fx.dim, 3)[0]
		assertMatchesBrute(t, fx.name, ix, w, 10)

		v2 := filepath.Join(t.TempDir(), "migrated.onion")
		if err := Write(v2, ix); err != nil {
			t.Fatal(err)
		}
		if v, _ := FormatVersion(readFile(t, v2)); v != 2 {
			t.Fatalf("%s: migrated file is format v%d", fx.name, v)
		}
		back, err := Load(v2)
		if err != nil {
			t.Fatal(err)
		}
		if back.ContentFingerprint() != fx.content || back.Fingerprint() != fx.layering {
			t.Fatalf("%s: the v2 rewrite changed the index", fx.name)
		}

		vec := make([]float64, fx.dim)
		for j := range vec {
			vec[j] = 9
		}
		if err := ix.Insert(core.Record{ID: 5000, Vector: vec}); err != nil {
			t.Fatalf("%s: insert after load: %v", fx.name, err)
		}
		assertMatchesBrute(t, fx.name+" after insert", ix, w, 10)
	}
}

// TestHeaderPagesGrowth pins the v2 directory's size: a 52-byte header
// plus one entry per layer (56 bytes for a plain 2D layer), padded to
// whole pages, so the 73rd layer spills onto a second page.
func TestHeaderPagesGrowth(t *testing.T) {
	dirPages := func(layers int) int { return pagesFor(v2HeaderBytes + layers*v2EntryBytes(2, nil)) }
	if v2EntryBytes(2, nil) != 56 {
		t.Fatalf("2D entry = %d bytes, want 56", v2EntryBytes(2, nil))
	}
	if dirPages(1) != 1 {
		t.Errorf("1 layer -> %d pages", dirPages(1))
	}
	if dirPages(72) != 1 {
		t.Errorf("72 layers -> %d pages", dirPages(72))
	}
	if dirPages(73) != 2 {
		t.Errorf("73 layers -> %d pages", dirPages(73))
	}
}

// TestMarshalRejectsHugeDim: a record wider than a page cannot be a v1
// row, so the migrator rejects such a header instead of dividing by a
// zero records-per-page.
func TestMarshalRejectsHugeDim(t *testing.T) {
	if RecordsPerPage(511) != 1 {
		t.Errorf("511-dim records/page = %d", RecordsPerPage(511))
	}
	if RecordsPerPage(512) != 0 {
		t.Errorf("512-dim records/page = %d, want 0", RecordsPerPage(512))
	}
	v1 := readFixture(t, "v1-3d.onion")
	binary.LittleEndian.PutUint32(v1[8:], 512)
	if _, _, err := LoadBytes(v1, core.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("512-dim v1 header: %v, want ErrCorrupt", err)
	}
}
