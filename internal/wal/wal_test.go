package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func testRecords(t testing.TB, n, d int, seed int64) []core.Record {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	return recs
}

func buildIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	ix, err := core.Build(testRecords(t, n, d, seed), core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func sampleMutations(t testing.TB, dim int) []Mutation {
	t.Helper()
	recs := testRecords(t, 6, dim, 77)
	return []Mutation{
		{Insert: recs[:3]},
		{Delete: []uint64{1, 3}},
		{Insert: recs[3:]},
		{Delete: []uint64{6}},
	}
}

func encodeLog(t testing.TB, muts []Mutation, dim int) []byte {
	t.Helper()
	buf := EncodeHeader(dim)
	var err error
	for _, m := range muts {
		if buf, err = AppendMutation(buf, m, dim); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func mutationsEqual(a, b []Mutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Insert) != len(b[i].Insert) || len(a[i].Delete) != len(b[i].Delete) {
			return false
		}
		for j := range a[i].Insert {
			if a[i].Insert[j].ID != b[i].Insert[j].ID {
				return false
			}
			for k := range a[i].Insert[j].Vector {
				if a[i].Insert[j].Vector[k] != b[i].Insert[j].Vector[k] {
					return false
				}
			}
		}
		for j := range a[i].Delete {
			if a[i].Delete[j] != b[i].Delete[j] {
				return false
			}
		}
	}
	return true
}

func TestReplayRoundTrip(t *testing.T) {
	const dim = 3
	muts := sampleMutations(t, dim)
	log := encodeLog(t, muts, dim)

	gotDim, err := ParseHeader(log)
	if err != nil || gotDim != dim {
		t.Fatalf("ParseHeader = %d, %v", gotDim, err)
	}
	got, valid := Replay(log[HeaderSize:], dim)
	if valid != len(log)-HeaderSize {
		t.Fatalf("valid prefix %d, want %d", valid, len(log)-HeaderSize)
	}
	if !mutationsEqual(muts, got) {
		t.Fatalf("replayed mutations differ: %+v vs %+v", muts, got)
	}
}

// TestReplayTornTailEveryOffset is the format-level half of the
// kill-at-every-offset guarantee: truncating the log at any byte
// within record i must replay exactly records 0..i-1, and the reported
// valid prefix must end exactly at record i-1's boundary.
func TestReplayTornTailEveryOffset(t *testing.T) {
	const dim = 2
	muts := sampleMutations(t, dim)
	log := encodeLog(t, muts, dim)
	body := log[HeaderSize:]
	ends := RecordEnds(body, dim)
	if len(ends) != len(muts) {
		t.Fatalf("RecordEnds found %d records, want %d", len(ends), len(muts))
	}

	for cut := 0; cut <= len(body); cut++ {
		complete := 0
		for _, e := range ends {
			if e <= cut {
				complete++
			}
		}
		got, valid := Replay(body[:cut], dim)
		if len(got) != complete {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), complete)
		}
		wantValid := 0
		if complete > 0 {
			wantValid = ends[complete-1]
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, wantValid)
		}
		if !mutationsEqual(muts[:complete], got) {
			t.Fatalf("cut %d: prefix mutations differ", cut)
		}
	}
}

func TestReplayStopsAtCorruption(t *testing.T) {
	const dim = 2
	muts := sampleMutations(t, dim)
	log := encodeLog(t, muts, dim)
	body := log[HeaderSize:]
	ends := RecordEnds(body, dim)

	// Flip one payload byte inside record 2: records 0-1 replay, the
	// rest is discarded.
	corrupt := append([]byte(nil), body...)
	corrupt[ends[1]+frameOverhead] ^= 0xFF
	got, valid := Replay(corrupt, dim)
	if len(got) != 2 || valid != ends[1] {
		t.Fatalf("after corruption: %d records, valid %d; want 2 records, valid %d", len(got), valid, ends[1])
	}
}

func TestParseHeaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0xAB}, HeaderSize),
		EncodeHeader(3)[:HeaderSize-1],
	}
	for i, c := range cases {
		if _, err := ParseHeader(c); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("case %d: err = %v, want ErrBadHeader", i, err)
		}
	}
	// Dimension 0 is invalid even with good magic.
	h := EncodeHeader(1)
	h[8], h[9], h[10], h[11] = 0, 0, 0, 0
	if _, err := ParseHeader(h); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("dim 0: err = %v", err)
	}
}

func TestAppendMutationRejectsMixedAndBadDim(t *testing.T) {
	recs := testRecords(t, 1, 3, 5)
	if _, err := AppendMutation(nil, Mutation{Insert: recs, Delete: []uint64{9}}, 3); err == nil {
		t.Fatal("mixed mutation accepted")
	}
	if _, err := AppendMutation(nil, Mutation{Insert: recs}, 4); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// --- Manager tests ---

func openTestManager(t *testing.T, fs vfs.FS, cfg Config) (*Manager, *core.Index) {
	t.Helper()
	cfg.FS = fs
	m, ix, err := Open("/data", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ix
}

func TestManagerBootstrapAndRecover(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, ix := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if ix != nil {
		t.Fatal("fresh directory recovered an index")
	}
	built := buildIndex(t, 200, 3, 42)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	want := built.Fingerprint()

	// Mutate through the manager exactly as the serving layer does.
	extra := testRecords(t, 10, 3, 99)
	for i := range extra {
		extra[i].ID += 1000
	}
	next := built.Clone()
	if err := next.InsertBatch(extra[:5]); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitBatch([]Mutation{{Insert: extra[:5]}}, next); err != nil {
		t.Fatal(err)
	}
	if err := next.DeleteBatch([]uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitBatch([]Mutation{{Delete: []uint64{1, 2}}}, next); err != nil {
		t.Fatal(err)
	}
	wantFinal := next.Fingerprint()
	if wantFinal == want {
		t.Fatal("mutations did not change the fingerprint")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	m2, rec := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if rec == nil {
		t.Fatal("no state recovered")
	}
	if got := rec.Fingerprint(); got != wantFinal {
		t.Fatalf("recovered fingerprint %s, want %s", got, wantFinal)
	}
	if rec.Len() != next.Len() {
		t.Fatalf("recovered %d records, want %d", rec.Len(), next.Len())
	}
	m2.Close()
}

func TestManagerCheckpointRotation(t *testing.T) {
	fs := vfs.NewCrashFS()
	// Threshold of 1 byte: every commit triggers a rotation.
	m, _ := openTestManager(t, fs, Config{CheckpointBytes: 1})
	built := buildIndex(t, 120, 2, 7)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	next := built
	for i := 0; i < 3; i++ {
		next = next.Clone()
		rec := core.Record{ID: uint64(5000 + i), Vector: []float64{float64(i), -float64(i)}}
		if err := next.InsertBatch([]core.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitBatch([]Mutation{{Insert: []core.Record{rec}}}, next); err != nil {
			t.Fatal(err)
		}
	}
	if m.Seq() != 4 { // bootstrap epoch 1 + three rotations
		t.Fatalf("epoch = %d, want 4", m.Seq())
	}
	// Exactly one (checkpoint, wal) pair remains.
	names, err := fs.ReadDir("/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("data dir holds %v, want one checkpoint + one wal", names)
	}
	m.Close()

	fs.Crash()
	_, rec := openTestManager(t, fs, Config{CheckpointBytes: 1})
	if rec == nil || rec.Fingerprint() != next.Fingerprint() {
		t.Fatalf("recovery after rotations: got %v", rec)
	}
}

// TestManagerRecoversMidRotation simulates the crash window rotation
// leaves: the new checkpoint is durable but the old epoch's files were
// never removed (and the old log still has records). Recovery must
// prefer the newest checkpoint and ignore the stale pair.
func TestManagerRecoversMidRotation(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{CheckpointBytes: -1})
	built := buildIndex(t, 100, 2, 11)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	next := built.Clone()
	rec := core.Record{ID: 9001, Vector: []float64{4, 4}}
	if err := next.InsertBatch([]core.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitBatch([]Mutation{{Insert: []core.Record{rec}}}, next); err != nil {
		t.Fatal(err)
	}
	// Hand-write epoch 2's checkpoint as a durable file, as if the crash
	// hit between rotation steps 2 and 3.
	if err := writeDurable(fs, "/data/"+checkpointName(2), marshalIndex(t, next)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	fs.Crash()

	m2, got := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if got == nil || got.Fingerprint() != next.Fingerprint() {
		t.Fatal("mid-rotation recovery lost state")
	}
	if m2.Seq() != 2 {
		t.Fatalf("recovered epoch %d, want 2", m2.Seq())
	}
	// The stale epoch-1 pair was cleaned up.
	names, _ := fs.ReadDir("/data")
	for _, n := range names {
		if s, ok := parseSeq(n, "checkpoint-", ".onion"); ok && s != 2 {
			t.Fatalf("stale checkpoint %s survived cleanup", n)
		}
		if s, ok := parseSeq(n, "wal-", ".log"); ok && s != 2 {
			t.Fatalf("stale wal %s survived cleanup", n)
		}
	}
	m2.Close()
}

// TestManagerCorruptNewestFallsBack: a garbage newest checkpoint (torn
// rotation) must fall back to the previous epoch's pair.
func TestManagerCorruptNewestFallsBack(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{CheckpointBytes: -1})
	built := buildIndex(t, 80, 2, 13)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := writeDurable(fs, "/data/"+checkpointName(2), []byte("not an index")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	m2, rec := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if rec == nil || rec.Fingerprint() != built.Fingerprint() {
		t.Fatal("fallback to previous checkpoint failed")
	}
	m2.Close()

	// But a directory whose every checkpoint is corrupt must refuse to
	// open rather than serve empty.
	fs2 := vfs.NewCrashFS()
	fs2.MkdirAll("/data", 0o755)
	if err := writeDurable(fs2, "/data/"+checkpointName(1), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open("/data", Config{FS: fs2}); err == nil {
		t.Fatal("all-corrupt directory opened successfully")
	}
}

func TestManagerEmptyIndexCheckpoint(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{CheckpointBytes: -1})
	built := buildIndex(t, 30, 2, 17)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	// Delete everything, checkpoint the empty state.
	empty := built.Clone()
	ids := make([]uint64, 0, built.Len())
	for _, r := range built.Records() {
		ids = append(ids, r.ID)
	}
	if err := empty.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.NumLayers() != 0 {
		t.Fatalf("delete-all left %d records in %d layers", empty.Len(), empty.NumLayers())
	}
	if err := m.Checkpoint(empty); err != nil {
		t.Fatal(err)
	}
	m.Close()
	fs.Crash()

	m2, rec := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if rec == nil || rec.Len() != 0 || rec.Dim() != 2 {
		t.Fatalf("empty checkpoint recovery: %+v", rec)
	}
	// The recovered empty index accepts inserts (and they are durable).
	next := rec.Clone()
	r := core.Record{ID: 1, Vector: []float64{1, 2}}
	if err := next.InsertBatch([]core.Record{r}); err != nil {
		t.Fatal(err)
	}
	if err := m2.CommitBatch([]Mutation{{Insert: []core.Record{r}}}, next); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	fs.Crash()
	_, rec2 := openTestManager(t, fs, Config{CheckpointBytes: -1})
	if rec2 == nil || rec2.Len() != 1 {
		t.Fatalf("insert into recovered empty index not durable: %+v", rec2)
	}
}

func TestManagerFsyncModes(t *testing.T) {
	for _, mode := range []Mode{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := vfs.NewCrashFS()
			m, _ := openTestManager(t, fs, Config{Fsync: mode, CheckpointBytes: -1})
			built := buildIndex(t, 60, 2, 23)
			if err := m.Bootstrap(built); err != nil {
				t.Fatal(err)
			}
			next := built.Clone()
			recs := testRecords(t, 3, 2, 31)
			for i := range recs {
				recs[i].ID += 500
			}
			if err := next.InsertBatch(recs); err != nil {
				t.Fatal(err)
			}
			muts := []Mutation{{Insert: recs[:1]}, {Insert: recs[1:]}}
			if err := m.CommitBatch(muts, next); err != nil {
				t.Fatal(err)
			}
			fs.Crash()
			_, rec := openTestManager(t, fs, Config{Fsync: mode, CheckpointBytes: -1})
			switch mode {
			case FsyncOff:
				// No fsync: the crash may (here: does) lose the batch, but
				// recovery still lands on the bootstrap state, not garbage.
				if rec == nil || rec.Fingerprint() != built.Fingerprint() {
					t.Fatal("fsync=off recovery not a consistent prefix")
				}
			default:
				if rec == nil || rec.Fingerprint() != next.Fingerprint() {
					t.Fatalf("fsync=%s lost an acknowledged batch", mode)
				}
			}
		})
	}
	// always issues one fsync per record, batch one per batch.
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{Fsync: FsyncAlways, CheckpointBytes: -1})
	built := buildIndex(t, 40, 2, 29)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	base := m.fsyncs.Load()
	next := built.Clone()
	recs := testRecords(t, 2, 2, 37)
	recs[0].ID, recs[1].ID = 901, 902
	if err := next.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitBatch([]Mutation{{Insert: recs[:1]}, {Insert: recs[1:]}}, next); err != nil {
		t.Fatal(err)
	}
	if got := m.fsyncs.Load() - base; got != 2 {
		t.Fatalf("fsync=always issued %d fsyncs for 2 records, want 2", got)
	}
}

func TestCommitBeforeBootstrapFails(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{})
	err := m.CommitBatch([]Mutation{{Delete: []uint64{1}}}, nil)
	if !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("err = %v, want ErrNotBootstrapped", err)
	}
	if err := m.Checkpoint(nil); !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("Checkpoint err = %v, want ErrNotBootstrapped", err)
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, s := range []string{"always", "batch", "off"} {
		m, err := ParseMode(s)
		if err != nil || m.String() != s {
			t.Fatalf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// writeDurable writes path with full sync discipline on a CrashFS.
func writeDurable(fs *vfs.CrashFS, path string, data []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	f.Close()
	return fs.SyncDir("/data")
}

func marshalIndex(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	data, err := storage.MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestVarsRender(t *testing.T) {
	fs := vfs.NewCrashFS()
	m, _ := openTestManager(t, fs, Config{CheckpointBytes: -1})
	built := buildIndex(t, 50, 2, 3)
	if err := m.Bootstrap(built); err != nil {
		t.Fatal(err)
	}
	s := m.Vars().String()
	for _, key := range []string{"records", "fsyncs", "checkpoint_epoch", "fsync_latency_ms"} {
		if !bytes.Contains([]byte(s), []byte(fmt.Sprintf("%q", key))) {
			t.Fatalf("Vars output missing %q: %s", key, s)
		}
	}
}
