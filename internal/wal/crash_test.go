// The crash-recovery torture tests: the durability pipeline is run
// end to end (HTTP serving layer → mutator → group commit → log), a
// power loss is simulated at every possible byte boundary of the log,
// and recovery is required to land on exactly the last durable
// published state — never a torn one, never a future one. This file is
// an external test package because it wires wal and server together.
package wal_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/workload"
)

func buildIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// durableServer couples a server to a WAL manager on the given
// filesystem, bootstrapping from a fresh build, with the given fold
// threshold (0 = the server default).
func durableServer(t *testing.T, fs vfs.FS, dir string, n, d int, seed int64, deltaThreshold int) (*server.Server, *wal.Manager, *core.Index) {
	t.Helper()
	mgr, rec, err := wal.Open(dir, wal.Config{FS: fs, CheckpointBytes: -1, Options: core.Options{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered state")
	}
	base := buildIndex(t, n, d, seed)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	return server.New(base, server.Config{WAL: mgr, DeltaThreshold: deltaThreshold}), mgr, base
}

// dataFiles returns the live (checkpoint, wal) file names in dir.
func dataFiles(t *testing.T, fs vfs.FS, dir string) (cp, wl string) {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "checkpoint-"):
			cp = n
		case strings.HasPrefix(n, "wal-"):
			wl = n
		}
	}
	if cp == "" || wl == "" {
		t.Fatalf("data dir %v missing a checkpoint/wal pair", names)
	}
	return cp, wl
}

func writeDurable(t *testing.T, fs *vfs.CrashFS, dir, name string, data []byte) {
	t.Helper()
	f, err := fs.OpenFile(dir+"/"+name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

// runSerialOps drives mutations through the serving layer one at a
// time — each op is one publish and one WAL record — and returns the
// published fingerprint after each op, with fps[0] the pre-op state.
// fp selects the oracle: (*core.Index).Fingerprint, which covers the
// delta, wherever no fold ran since the checkpoint (recovery rebuilds
// exactly the published delta), (*core.Index).ContentFingerprint where
// one did (recovery replays onto the checkpoint, not onto the fold).
func runSerialOps(t *testing.T, s *server.Server, base *core.Index, d, ops int, fp func(*core.Index) string) []string {
	t.Helper()
	ctx := context.Background()
	fps := []string{fp(base)}
	for i := 0; i < ops; i++ {
		if i%3 == 2 {
			// Delete a seed record that is still present.
			if err := s.Delete(ctx, []uint64{uint64(i + 1)}); err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
		} else {
			vec := make([]float64, d)
			for j := range vec {
				vec[j] = float64(i+1) * 0.25 * float64(j+1)
			}
			rec := core.Record{ID: uint64(10000 + i), Vector: vec}
			if err := s.Insert(ctx, []core.Record{rec}); err != nil {
				t.Fatalf("op %d insert: %v", i, err)
			}
		}
		fps = append(fps, fp(s.Snapshot()))
	}
	return fps
}

// foldThenDelta returns the fingerprints recovery must produce after a
// checkpoint of snap followed by tail, one logged insert each:
// fps[0] is the checkpoint's fold of snap's delta (CompactedClone, as
// the manager writes it), and fps[i] that fold with the first i tail
// records applied through its delta buffer, one publish each.
func foldThenDelta(t *testing.T, snap *core.Index, tail []core.Record) []string {
	t.Helper()
	cur, err := snap.CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	fps := []string{cur.Fingerprint()}
	for _, r := range tail {
		cur = cur.CloneDelta()
		if err := cur.InsertDelta([]core.Record{r}); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, cur.Fingerprint())
	}
	return fps
}

// TestCrashAtEveryWALOffset is the acceptance torture test. A server
// publishes N serial mutations through the group-commit path; then,
// for EVERY byte offset of the log's record region, a crashed disk
// holding the checkpoint plus that prefix of the log is recovered and
// must fingerprint exactly as the last state whose record is complete
// at that offset. Recovery is never torn (a partial record never
// surfaces) and never future (no state beyond the durable prefix).
func TestCrashAtEveryWALOffset(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	s, _, base := durableServer(t, fs, "/data", 120, dim, 17, 0)
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).Fingerprint)

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
		t.Fatalf("durable log holds %d records, want %d", len(ends), ops)
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
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		m2.Close()
	}
}

// TestCrashAfterMidwayCheckpoint repeats the torture with a checkpoint
// forced between ops: the log then holds only the post-checkpoint tail,
// and every truncation point must map onto the states published after
// the checkpoint.
func TestCrashAfterMidwayCheckpoint(t *testing.T) {
	const dim = 2
	const before, after = 4, 4
	fs := vfs.NewCrashFS()
	s, mgr, base := durableServer(t, fs, "/data", 100, dim, 23, 0)
	runSerialOps(t, s, base, dim, before, (*core.Index).Fingerprint)
	if err := mgr.Checkpoint(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if mgr.Seq() != 2 {
		t.Fatalf("epoch %d after forced checkpoint, want 2", mgr.Seq())
	}
	// The checkpoint holds the fold of the snapshot's delta; each tail
	// record replays into that fold's delta.
	var tail []core.Record
	for i := 0; i < after; i++ {
		tail = append(tail, core.Record{ID: uint64(20000 + i), Vector: []float64{float64(i) + 0.5, -float64(i)}})
	}
	fps := foldThenDelta(t, s.Snapshot(), tail)
	ctx := context.Background()
	for _, rec := range tail {
		if err := s.Insert(ctx, []core.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}

	fs.Crash()
	cpName, wlName := dataFiles(t, fs, "/data")
	cp, _ := fs.ReadFile("/data/" + cpName)
	wl, _ := fs.ReadFile("/data/" + wlName)
	body := wl[wal.HeaderSize:]
	ends := wal.RecordEnds(body, dim)
	if len(ends) != after {
		t.Fatalf("post-checkpoint log holds %d records, want %d", len(ends), after)
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
		_, rec, err := wal.Open("/data", wal.Config{FS: fs2, CheckpointBytes: -1, Options: core.Options{Seed: 23}})
		if err != nil || rec == nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete tail records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
	}
}

// TestRestartServesIdenticalTopN is the end-to-end restart check on a
// real filesystem: an onionserve-shaped stack (HTTP handler included)
// is mutated, shut down WITHOUT a final checkpoint (forcing WAL replay
// on the next boot), reopened on the same data directory, and must
// serve byte-identical /v1/topn responses.
func TestRestartServesIdenticalTopN(t *testing.T) {
	dir := t.TempDir()
	const dim = 3
	mgr, rec, err := wal.Open(dir, wal.Config{Options: core.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir recovered state")
	}
	base := buildIndex(t, 300, dim, 5)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	s := server.New(base, server.Config{WAL: mgr})
	ts := httptest.NewServer(s.Handler())

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		rec := core.Record{ID: uint64(7000 + i), Vector: []float64{float64(i), 1.5, -float64(i) * 0.5}}
		if err := s.Insert(ctx, []core.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(ctx, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	wantFp := s.Snapshot().Fingerprint()
	query := func(url string) string {
		t.Helper()
		resp, err := postTopN(url, `{"weights":[0.4,0.35,0.25],"n":12}`)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	body1 := query(ts.URL)

	ts.Close()
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // Close does not checkpoint: restart must replay
		t.Fatal(err)
	}

	mgr2, rec2, err := wal.Open(dir, wal.Config{Options: core.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil {
		t.Fatal("restart recovered nothing")
	}
	if got := rec2.Fingerprint(); got != wantFp {
		t.Fatalf("recovered fingerprint %s, want %s", got, wantFp)
	}
	s2 := server.New(rec2, server.Config{WAL: mgr2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close(ctx)
		mgr2.Close()
	}()
	body2 := query(ts2.URL)
	if body1 != body2 {
		t.Fatalf("restarted /v1/topn differs:\n before: %s\n after:  %s", body1, body2)
	}
}

// TestCrashAtEveryWALOffsetDeltaMode repeats the byte-offset torture
// with a fold threshold no op reaches: every published snapshot
// carries its mutations in the delta buffer, and recovery replays the
// log into the checkpoint's delta, so at every cut the recovered index
// fingerprints — layers and delta — as the published state, and at the
// full prefix ranks bit-identically to the live snapshot.
func TestCrashAtEveryWALOffsetDeltaMode(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	s, _, base := durableServer(t, fs, "/data", 120, dim, 17, 1<<20)
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).Fingerprint)
	live := s.Snapshot()
	if !live.HasDelta() {
		t.Fatal("delta-mode server published a snapshot with no pending delta")
	}

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
		t.Fatalf("durable log holds %d records, want %d", len(ends), ops)
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
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if cut == len(body) {
			// Full durable prefix: the recovered index must rank
			// bit-identically to the live delta-carrying snapshot.
			w := []float64{0.6, 0.4}
			want, _, _ := live.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if len(got) != len(want) {
				t.Fatalf("recovered top-15 has %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("recovered rank %d = (%d, %v), live = (%d, %v)",
						i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
		m2.Close()
	}
}

// TestCheckpointWithPendingDelta forces a checkpoint while the live
// snapshot still carries unfolded delta records and tombstones. The
// on-disk layer format cannot represent a delta, so the manager must
// fold a compacted copy — losing the delta inserts or resurrecting
// tombstoned records here would corrupt every later recovery. The
// recovered state is exactly that fold with the log's tail in its
// delta, and its content is the live snapshot's.
func TestCheckpointWithPendingDelta(t *testing.T) {
	const dim = 2
	fs := vfs.NewCrashFS()
	s, mgr, base := durableServer(t, fs, "/data", 100, dim, 23, 1<<20)
	runSerialOps(t, s, base, dim, 6, (*core.Index).Fingerprint)
	snap := s.Snapshot()
	if !snap.HasDelta() {
		t.Fatal("expected a pending delta before the forced checkpoint")
	}
	if err := mgr.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if snap.HasDelta() != true {
		t.Fatal("checkpoint must not mutate the snapshot it persists")
	}
	// A few more delta-buffered ops land in the post-checkpoint log.
	var tail []core.Record
	for i := 0; i < 3; i++ {
		tail = append(tail, core.Record{ID: uint64(30000 + i), Vector: []float64{float64(i) + 0.25, -float64(i)}})
	}
	fps := foldThenDelta(t, snap, tail)
	contents := []string{snap.ContentFingerprint()}
	ctx := context.Background()
	for _, rec := range tail {
		if err := s.Insert(ctx, []core.Record{rec}); err != nil {
			t.Fatal(err)
		}
		contents = append(contents, s.Snapshot().ContentFingerprint())
	}

	fs.Crash()
	cpName, wlName := dataFiles(t, fs, "/data")
	cp, _ := fs.ReadFile("/data/" + cpName)
	wl, _ := fs.ReadFile("/data/" + wlName)
	body := wl[wal.HeaderSize:]
	ends := wal.RecordEnds(body, dim)
	if len(ends) != 3 {
		t.Fatalf("post-checkpoint log holds %d records, want 3", len(ends))
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
		m2, rec, err := wal.Open("/data", wal.Config{FS: fs2, CheckpointBytes: -1, Options: core.Options{Seed: 23}})
		if err != nil || rec == nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete tail records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if got := rec.ContentFingerprint(); got != contents[complete] {
			t.Fatalf("cut %d (%d complete tail records): content fingerprint %s, want %s",
				cut, complete, got, contents[complete])
		}
		m2.Close()
	}
}

func postTopN(baseURL, body string) (string, error) {
	resp, err := httpPost(baseURL+"/v1/topn", body)
	if err != nil {
		return "", err
	}
	defer resp.Close()
	b, err := io.ReadAll(resp)
	return string(b), err
}

func httpPost(url, body string) (io.ReadCloser, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return resp.Body, nil
}
