package wal

import (
	"errors"
	"expvar"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Mode selects when log appends are forced to stable storage.
type Mode int

const (
	// FsyncBatch (the default) issues one fsync per committed batch:
	// the group-commit path, where every operation the mutator coalesced
	// shares a single disk flush. Nothing acknowledged is ever lost.
	FsyncBatch Mode = iota
	// FsyncAlways fsyncs after every individual record — one flush per
	// operation even within a coalesced batch. Strictly slower than
	// FsyncBatch with identical durability for acknowledged writes;
	// provided as the conservative bound for benchmarking the
	// group-commit win.
	FsyncAlways
	// FsyncOff never fsyncs the log (the OS flushes on its own
	// schedule). A crash can lose recently acknowledged mutations, but
	// replay still recovers a consistent prefix — torn-tail tolerance
	// does not depend on fsync.
	FsyncOff
)

// ParseMode parses the -fsync flag values: always, batch, off.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want always, batch or off)", s)
}

func (m Mode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "batch"
}

// Config tunes a Manager. The zero value is ready to use: OS
// filesystem, batch fsync, 64 MB checkpoint threshold.
type Config struct {
	// FS is the filesystem seam; nil means the real OS.
	FS vfs.FS
	// Fsync is the log flush policy.
	Fsync Mode
	// CheckpointBytes triggers a checkpoint (and log truncation) once
	// the log grows past this size. 0 means 64 MB; negative disables
	// automatic checkpoints (explicit Checkpoint calls still work).
	CheckpointBytes int64
	// Options is passed to the checkpoint decoder when a checkpoint is
	// loaded, carrying the tolerance/seed/parallelism the recovered
	// index uses for its folds. Replay itself runs no hull, so it is
	// exact under any options; folds re-layer identically only under
	// the options of the index whose mutations were logged.
	Options core.Options
	// Mmap serves the recovered checkpoint from a memory mapping
	// (storage.MappedV2) instead of decoding it onto the heap: restart
	// is open + map + WAL replay, with vector extents paged in on
	// demand. A format v1 checkpoint (written before v2 existed)
	// encountered under Mmap falls back to the decode path, and the
	// next rotation rewrites it as v2.
	Mmap bool
	// ResidentBudget caps the mapped checkpoint's accounted resident
	// extent bytes (0 = unlimited). Only meaningful with Mmap.
	ResidentBudget int64
}

// DefaultCheckpointBytes is the automatic checkpoint threshold when
// Config.CheckpointBytes is zero.
const DefaultCheckpointBytes = 64 << 20

// Manager pairs a write-ahead log with atomic full-index checkpoints in
// one data directory:
//
//	checkpoint-<seq>.onion   index snapshot (storage format v2)
//	wal-<seq>.log            mutations applied since that checkpoint
//
// The protocol keeps exactly one epoch live. A checkpoint rotation
// writes checkpoint-<seq+1> with the atomic-replace discipline, creates
// an empty wal-<seq+1>, fsyncs the directory, and only then deletes the
// old epoch's files — so a crash at any step leaves at least one
// complete (checkpoint, log) pair on disk. Recovery picks the newest
// loadable checkpoint, replays its log's valid prefix, and truncates
// the torn tail.
//
// All methods are safe for concurrent use, though the serving layer
// funnels CommitBatch through its single mutator goroutine anyway.
type Manager struct {
	fs  vfs.FS
	dir string
	cfg Config

	mu      sync.Mutex
	dim     int
	seq     uint64
	wal     vfs.File
	walSize int64

	// mapped is the mmap-backed checkpoint the recovered index serves
	// from, when Config.Mmap found a v2 checkpoint. Set once during
	// Open, before the manager escapes to other goroutines. The mapping
	// is deliberately NOT unmapped by Close: published snapshots (and
	// their clones) alias its pages for the life of the process, and a
	// stale read through an unmapped extent is a fault, not an error.
	mapped *storage.MappedV2

	// metrics, all monotonic unless noted.
	records         atomic.Int64 // mutations appended
	batches         atomic.Int64 // CommitBatch calls
	bytesWritten    atomic.Int64 // log bytes appended
	fsyncs          atomic.Int64 // log fsyncs issued
	checkpoints     atomic.Int64 // rotations completed
	replayed        atomic.Int64 // mutations replayed at Open
	tornBytes       atomic.Int64 // torn-tail bytes truncated at Open
	walSizeGauge    atomic.Int64 // current log size (gauge)
	checkpointBytes atomic.Int64 // size of the newest checkpoint (gauge)
	fsyncLatency    telemetry.Histogram
	ckptLatency     telemetry.Histogram
}

// ErrNotBootstrapped is returned by CommitBatch/Checkpoint before the
// manager holds any durable state.
var ErrNotBootstrapped = errors.New("wal: manager has no state (call Bootstrap first)")

func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%016x.onion", seq) }
func walName(seq uint64) string        { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSeq extracts the hex sequence from a file name of the form
// prefix<seq>suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// Open recovers durable state from dir (creating it if absent). The
// returned index is the recovered snapshot — the newest valid
// checkpoint plus the valid prefix of its log — or nil when the
// directory holds no state yet, in which case the caller must seed the
// manager with Bootstrap before committing batches.
func Open(dir string, cfg Config) (*Manager, *core.Index, error) {
	m := &Manager{fs: cfg.FS, dir: dir, cfg: cfg}
	if m.fs == nil {
		m.fs = vfs.OS{}
	}
	if err := m.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	names, err := m.fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if s, ok := parseSeq(name, "checkpoint-", ".onion"); ok {
			seqs = append(seqs, s)
		}
	}
	if len(seqs) == 0 {
		return m, nil, nil
	}
	// Newest loadable checkpoint wins. An unreadable newest checkpoint
	// is legitimate only mid-rotation (crash between the new epoch's
	// rename and the old epoch's removal); if every checkpoint is
	// corrupt the directory held state we cannot recover, and silently
	// serving empty would be data loss — fail loudly instead.
	var ix *core.Index
	var loadErr error
	for _, s := range sortedDesc(seqs) {
		var cand *core.Index
		cand, loadErr = m.loadCheckpoint(s)
		if loadErr == nil {
			ix, m.seq = cand, s
			break
		}
	}
	if ix == nil {
		return nil, nil, fmt.Errorf("wal: no loadable checkpoint in %s: %w", dir, loadErr)
	}
	m.dim = ix.Dim()
	if err := m.recoverLog(ix); err != nil {
		return nil, nil, err
	}
	// The surviving epoch's namespace is durable from here; strays from
	// interrupted rotations (older epochs, temp files, orphaned newer
	// logs) can now be removed safely.
	if err := m.fs.SyncDir(m.dir); err != nil {
		return nil, nil, err
	}
	m.cleanup(names)
	return m, ix, nil
}

func sortedDesc(seqs []uint64) []uint64 {
	for i := 1; i < len(seqs); i++ {
		for j := i; j > 0 && seqs[j] > seqs[j-1]; j-- {
			seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
		}
	}
	return seqs
}

// loadCheckpoint reads checkpoint seq into a mutable index, preserving
// the stored layer partition. v2 loads via the columnar path (mapped
// when Config.Mmap is set and the filesystem allows it, decoded
// otherwise); a v1 file migrates through storage.LoadBytes. Any error —
// corruption, bad aux, unmappable file — bubbles up so Open falls back
// to the previous epoch, with one exception: a v1 file under Mmap is
// not an error, it is a pre-migration checkpoint, and it loads through
// the decode path (the next rotation rewrites it as v2).
func (m *Manager) loadCheckpoint(seq uint64) (*core.Index, error) {
	path := filepath.Join(m.dir, checkpointName(seq))
	if m.cfg.Mmap {
		mp, err := storage.OpenMappedV2FS(m.fs, path, m.cfg.ResidentBudget)
		switch {
		case err == nil:
			ix, ierr := mp.Index(m.cfg.Options)
			if ierr == nil {
				ierr = m.attachAux(ix, mp.Aux())
			}
			if ierr != nil {
				mp.Close()
				return nil, fmt.Errorf("wal: checkpoint %d: %w", seq, ierr)
			}
			m.checkpointBytes.Store(mp.SizeBytes())
			m.mapped = mp
			return ix, nil
		case errors.Is(err, storage.ErrBadVersion):
			// v1 checkpoint: fall through to the decode path below.
		default:
			return nil, fmt.Errorf("wal: checkpoint %d: %w", seq, err)
		}
	}
	data, err := m.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, aux, err := storage.LoadBytes(data, m.cfg.Options)
	if err == nil {
		err = m.attachAux(ix, aux)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %d: %w", seq, err)
	}
	m.checkpointBytes.Store(int64(len(data)))
	return ix, nil
}

// attachAux re-attaches state carried in the checkpoint's aux blob —
// today, the hierarchical compactor's cluster assignment. A restart
// that finds a spec re-attaches it lazily (no k-means, no re-peel; the
// per-cluster Onions rebuild from the spec on the first fold). An aux
// blob that fails to decode is checkpoint corruption: recovery must
// fall back to the previous epoch rather than silently serve without
// the compactor it durably had.
func (m *Manager) attachAux(ix *core.Index, aux []byte) error {
	if len(aux) == 0 {
		return nil
	}
	if !hierarchy.IsSpec(aux) {
		return fmt.Errorf("%w: unrecognized aux blob", storage.ErrCorrupt)
	}
	// The spec describes the checkpoint BASE and materializes lazily —
	// possibly after delta mutations have buffered deletes of base
	// records — so its vector source must bypass the delta lookthrough.
	rh, err := hierarchy.DecodeSpec(aux, baseVectors{ix}, ix.Parallelism())
	if err != nil {
		return fmt.Errorf("%w: compactor spec: %v", storage.ErrCorrupt, err)
	}
	if err := ix.SetClusterCompactor(rh); err != nil {
		return fmt.Errorf("%w: compactor spec: %v", storage.ErrCorrupt, err)
	}
	return nil
}

// baseVectors adapts an index into the hierarchy.VectorSource a
// rehydrated spec resolves record IDs against: base records only (see
// attachAux).
type baseVectors struct{ ix *core.Index }

func (b baseVectors) Vector(id uint64) ([]float64, bool) { return b.ix.BaseVector(id) }

// recoverLog replays the current epoch's log into ix, truncates any
// torn tail, and leaves the manager with an open append handle.
func (m *Manager) recoverLog(ix *core.Index) error {
	path := filepath.Join(m.dir, walName(m.seq))
	data, err := m.fs.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Crash after the checkpoint became durable but before its log
		// was created: the checkpoint alone is the recovered state.
		return m.createLog()
	case err != nil:
		return err
	}
	dim, herr := ParseHeader(data)
	if herr != nil {
		// The log itself is torn inside its header — the crash hit
		// during log creation, so no mutation can have been committed to
		// it. Recreate it empty.
		return m.createLog()
	}
	if dim != m.dim {
		return fmt.Errorf("wal: log dimension %d does not match checkpoint dimension %d", dim, m.dim)
	}
	muts, valid := Replay(data[HeaderSize:], dim)
	for i, mu := range muts {
		// A committed record was applied successfully before the crash,
		// so replaying it on the same logical state must succeed; a
		// failure here means the pairing is corrupt, not torn. Replay goes
		// through the delta buffer, as the serving layer applied it: no
		// hull work, and the recovered index is the checkpoint's layers
		// plus the delta the server had published.
		if err := mu.ApplyDelta(ix); err != nil {
			return fmt.Errorf("wal: replaying record %d of %d: %w", i+1, len(muts), err)
		}
	}
	m.replayed.Add(int64(len(muts)))
	size := int64(HeaderSize + valid)
	if torn := int64(len(data)) - size; torn > 0 {
		m.tornBytes.Add(torn)
		if err := m.fs.Truncate(path, size); err != nil {
			return err
		}
	}
	f, err := m.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	m.wal, m.walSize = f, size
	m.walSizeGauge.Store(size)
	return nil
}

// createLog writes a fresh, empty, durable log file for the current
// epoch and keeps it open for appending.
func (m *Manager) createLog() error {
	path := filepath.Join(m.dir, walName(m.seq))
	f, err := m.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(EncodeHeader(m.dim)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		f.Close()
		return err
	}
	m.wal, m.walSize = f, HeaderSize
	m.walSizeGauge.Store(HeaderSize)
	return nil
}

// cleanup removes files that do not belong to the live epoch. Failures
// are ignored: strays are harmless (recovery skips them) and the next
// Open retries.
func (m *Manager) cleanup(names []string) {
	for _, name := range names {
		cpSeq, isCp := parseSeq(name, "checkpoint-", ".onion")
		walSeq, isWal := parseSeq(name, "wal-", ".log")
		stray := strings.HasSuffix(name, ".tmp") ||
			(isCp && cpSeq != m.seq) || (isWal && walSeq != m.seq)
		if stray {
			m.fs.Remove(filepath.Join(m.dir, name))
		}
	}
	m.fs.SyncDir(m.dir)
}

// Bootstrap seeds an empty manager with an initial index: it writes
// checkpoint 1 and an empty log. The index must be the exact state the
// serving layer starts from — every subsequent CommitBatch is a delta
// against it.
func (m *Manager) Bootstrap(ix *core.Index) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal != nil || m.seq != 0 {
		return errors.New("wal: Bootstrap on a manager that already has state")
	}
	m.dim = ix.Dim()
	return m.rotateLocked(ix)
}

// CommitBatch appends every mutation of one applied batch to the log
// and forces it to stable storage per the fsync mode — the group
// commit: in FsyncBatch mode the whole coalesced batch shares one
// write and one fsync. Called by the serving layer's mutator before it
// publishes the snapshot `next`; if the log has outgrown the
// checkpoint threshold, the commit also rotates to a fresh checkpoint
// of `next` (which is immutable from here on, so marshalling it is
// safe).
func (m *Manager) CommitBatch(muts []Mutation, next *core.Index) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return ErrNotBootstrapped
	}
	if len(muts) == 0 {
		return nil
	}
	var err error
	if m.cfg.Fsync == FsyncAlways {
		var frame []byte
		for _, mu := range muts {
			if frame, err = AppendMutation(frame[:0], mu, m.dim); err != nil {
				return err
			}
			if err = m.appendLocked(frame); err != nil {
				return err
			}
			if err = m.syncLocked(); err != nil {
				return err
			}
		}
	} else {
		var buf []byte
		for _, mu := range muts {
			if buf, err = AppendMutation(buf, mu, m.dim); err != nil {
				return err
			}
		}
		if err = m.appendLocked(buf); err != nil {
			return err
		}
		if m.cfg.Fsync == FsyncBatch {
			if err = m.syncLocked(); err != nil {
				return err
			}
		}
	}
	m.records.Add(int64(len(muts)))
	m.batches.Add(1)

	threshold := m.cfg.CheckpointBytes
	if threshold == 0 {
		threshold = DefaultCheckpointBytes
	}
	if threshold > 0 && m.walSize-HeaderSize >= threshold {
		return m.rotateLocked(next)
	}
	return nil
}

func (m *Manager) appendLocked(buf []byte) error {
	if _, err := m.wal.Write(buf); err != nil {
		return err
	}
	m.walSize += int64(len(buf))
	m.walSizeGauge.Store(m.walSize)
	m.bytesWritten.Add(int64(len(buf)))
	return nil
}

func (m *Manager) syncLocked() error {
	start := time.Now()
	if err := m.wal.Sync(); err != nil {
		return err
	}
	m.fsyncs.Add(1)
	m.fsyncLatency.Observe(time.Since(start))
	return nil
}

// Checkpoint forces a rotation: writes a full checkpoint of ix and
// starts a fresh, empty log. onionserve calls it on clean shutdown so
// restart needs no replay.
func (m *Manager) Checkpoint(ix *core.Index) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq == 0 {
		return ErrNotBootstrapped
	}
	return m.rotateLocked(ix)
}

// rotateLocked moves to epoch seq+1. Ordering is the whole point:
//
//  1. checkpoint-<seq+1> is written with the atomic-replace discipline
//     (temp → fsync → rename → fsync dir);
//  2. wal-<seq+1> is created empty and made durable;
//  3. only then are the old epoch's files removed.
//
// A crash after (1) recovers from the new checkpoint with no log; a
// crash before it recovers from the old pair, which is still complete.
// Both are published states — never a torn or future one.
func (m *Manager) rotateLocked(ix *core.Index) error {
	start := time.Now()
	next := m.seq + 1
	cpPath := filepath.Join(m.dir, checkpointName(next))
	if ix.HasDelta() {
		// The on-disk format stores layers only, so the delta is folded
		// into a private compacted copy — the logical state is unchanged,
		// and the next recovery replays the new log into that fold's
		// delta. storage.WriteFS would fold on its own; folding here
		// first makes the compactor spec below describe the folded
		// layers the checkpoint holds.
		folded, err := ix.CompactedClone()
		if err != nil {
			return fmt.Errorf("wal: checkpoint %d: compact delta: %w", next, err)
		}
		ix = folded
	}
	// The checkpoint persists the hierarchical compactor's cluster
	// assignment as the aux blob, so a restart re-attaches it instead of
	// re-running k-means and re-peeling every cluster.
	var aux []byte
	if cc := ix.ClusterCompactor(); cc != nil {
		if enc, ok := cc.(interface{ EncodeSpec() ([]byte, error) }); ok {
			var err error
			if aux, err = enc.EncodeSpec(); err != nil {
				return fmt.Errorf("wal: checkpoint %d: encode compactor: %w", next, err)
			}
		}
	}
	size, err := storage.WriteFS(m.fs, cpPath, ix, aux)
	if err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", next, err)
	}
	m.checkpointBytes.Store(size)
	old := m.seq
	oldWal := m.wal
	m.seq = next
	m.wal = nil
	if err := m.createLog(); err != nil {
		// The new checkpoint is durable; recovery will pair it with a
		// fresh empty log. The manager itself is unusable until then.
		m.seq = old
		m.wal = oldWal
		return err
	}
	if oldWal != nil {
		oldWal.Close()
	}
	if old > 0 {
		m.fs.Remove(filepath.Join(m.dir, checkpointName(old)))
		m.fs.Remove(filepath.Join(m.dir, walName(old)))
		m.fs.SyncDir(m.dir)
	}
	m.checkpoints.Add(1)
	m.ckptLatency.Observe(time.Since(start))
	return nil
}

// Mapped returns the mmap-backed checkpoint store the recovered index
// serves from, or nil when serving from the heap (no Config.Mmap, or
// the recovered checkpoint was v1).
func (m *Manager) Mapped() *storage.MappedV2 { return m.mapped }

// MmapVars exposes the mapped store's paging metrics, or nil when
// serving from the heap.
func (m *Manager) MmapVars() expvar.Var {
	if m.mapped == nil {
		return nil
	}
	return m.mapped.Vars()
}

// Seq returns the live checkpoint epoch (0 before Bootstrap).
func (m *Manager) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// LogSize returns the current log size in bytes, header included.
func (m *Manager) LogSize() int64 { return m.walSizeGauge.Load() }

// Close syncs and closes the log. It does not checkpoint; callers that
// want a replay-free restart call Checkpoint first.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Sync()
	if cerr := m.wal.Close(); err == nil {
		err = cerr
	}
	m.wal = nil
	return err
}

// Vars exposes the manager's counters and latency histograms in
// expvar shape, for nesting under the server's /v1/metrics map.
func (m *Manager) Vars() expvar.Var {
	return expvar.Func(func() any {
		return map[string]any{
			"records":            m.records.Load(),
			"batches":            m.batches.Load(),
			"bytes_written":      m.bytesWritten.Load(),
			"fsyncs":             m.fsyncs.Load(),
			"fsync_latency_ms":   m.fsyncLatency.Summary(),
			"checkpoints":        m.checkpoints.Load(),
			"checkpoint_ms":      m.ckptLatency.Summary(),
			"checkpoint_bytes":   m.checkpointBytes.Load(),
			"replayed_records":   m.replayed.Load(),
			"torn_bytes_dropped": m.tornBytes.Load(),
			"log_size_bytes":     m.walSizeGauge.Load(),
			"checkpoint_epoch":   m.seqSnapshot(),
			"fsync_mode":         m.cfg.Fsync.String(),
		}
	})
}

func (m *Manager) seqSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}
