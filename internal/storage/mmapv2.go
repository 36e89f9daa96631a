package storage

import (
	"expvar"
	"fmt"
	"io/fs"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/vfs"
)

// MappedV2 serves a v2 checkpoint directly from a memory mapping: the
// index built by Index() adopts the layer extents in place (zero heap
// copies of vector data), and the query walk's layer accesses flow back
// through the core.SlabSource seam so this store can manage residency.
//
// Layer extents are the paging unit. The Onion walk touches layers
// outside-in and pruning cuts the walk short, so under the OS page
// cache the hot set is exactly the outer layers every query visits —
// an LRU over layers falls out of the access pattern. BeginLayer adds
// two levers on top:
//
//   - madvise(SEQUENTIAL) on a layer's extents the first time the walk
//     (re-)enters it, so the kernel reads the strided scan ahead;
//   - an optional resident-bytes budget: when the advised extents
//     exceed it, the least-recently-used layer is advised DONTNEED,
//     bounding this store's page-cache footprint below the corpus size
//     (the beyond-RAM serving mode). Evicted extents refault on the
//     next access — more I/O, never wrong answers.
//
// Residency is accounted at extent granularity from this store's own
// advice decisions, not probed from the kernel; mmap_major_faults_est
// is correspondingly an estimate (pages of each extent whose advice
// transitioned to resident), designed to be compared against the
// Eq. 2 prediction the serving layer exposes.
type MappedV2 struct {
	mapping vfs.Mapping
	buf     []byte
	dir     *v2Dir

	budget int64 // resident-bytes budget; 0 = unlimited

	mu       sync.Mutex
	resident []bool
	lastUse  []uint64
	clock    uint64

	residentBytes  atomic.Int64
	extentsMapped  atomic.Int64 // gauge: currently resident layer extents
	majorFaultsEst atomic.Int64 // estimated pages faulted in (first touch + refaults)
	extentsTouched atomic.Int64 // BeginLayer calls (actual extent accesses)
	pagesTouched   atomic.Int64 // extent pages of the layers BeginLayer entered
	evictions      atomic.Int64

	// dead, once set, is returned by every Guard call: Close sets it,
	// and so does the first memory fault Guard recovers, quarantining a
	// mapping whose file was truncated or replaced.
	dead atomic.Pointer[error]
	// closeMu is held for reading by every Guard call and for writing
	// by Close, so Close waits for guarded reads in flight instead of
	// unmapping the pages under them.
	closeMu sync.RWMutex
}

// OpenMappedV2 maps path on the production filesystem.
func OpenMappedV2(path string, residentBudget int64) (*MappedV2, error) {
	return OpenMappedV2FS(vfs.OS{}, path, residentBudget)
}

// OpenMappedV2FS maps (or, on filesystems without a Mapper, reads) a v2
// checkpoint and parses its directory. A v1 file reports ErrBadVersion
// so version-sniffing callers can fall back to the decode path.
func OpenMappedV2FS(fsys vfs.FS, path string, residentBudget int64) (*MappedV2, error) {
	mapping, err := vfs.MapFile(fsys, path)
	if err != nil {
		return nil, err
	}
	buf := mapping.Bytes()
	dir, err := parseV2(buf)
	if err != nil {
		mapping.Close()
		return nil, err
	}
	return &MappedV2{
		mapping:  mapping,
		buf:      buf,
		dir:      dir,
		budget:   residentBudget,
		resident: make([]bool, len(dir.layers)),
		lastUse:  make([]uint64, len(dir.layers)),
	}, nil
}

// Index builds the serving index over the mapping: layer extents are
// adopted zero-copy where the platform allows, record IDs are copied to
// the heap (maintenance writes them), the ID→position map is deferred
// (core.FromColumnar), and this store is attached as the index's
// SlabSource. The mapping must stay open for as long as the returned
// index — or any clone of it — can serve a query.
func (m *MappedV2) Index(opt core.Options) (*core.Index, error) {
	cols, ids, err := columnarFromV2(m.buf, m.dir, true)
	if err != nil {
		return nil, err
	}
	ix, err := core.FromColumnar(m.dir.dim, cols, ids, opt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ix.SetSlabSource(m)
	return ix, nil
}

// Aux returns the checkpoint's opaque aux blob (copied; the mapping may
// be advised away at any time, so callers must not alias it).
func (m *MappedV2) Aux() []byte {
	return append([]byte(nil), m.buf[m.dir.auxOff:m.dir.auxOff+m.dir.auxLen]...)
}

// Dim returns the indexed dimension.
func (m *MappedV2) Dim() int { return m.dir.dim }

// Records returns the checkpointed record count.
func (m *MappedV2) Records() int { return m.dir.records }

// SizeBytes returns the mapped file size.
func (m *MappedV2) SizeBytes() int64 { return int64(len(m.buf)) }

// BeginLayer implements core.SlabSource: touch layer k's extents,
// advise them in if non-resident, and evict LRU extents past the
// budget. Called concurrently by queries sharing the index.
func (m *MappedV2) BeginLayer(k int) {
	m.extentsTouched.Add(1)
	if k < 0 || k >= len(m.resident) {
		return
	}
	pages := int64(m.dir.layers[k].pages())
	m.pagesTouched.Add(pages)
	m.mu.Lock()
	m.clock++
	m.lastUse[k] = m.clock
	if !m.resident[k] {
		m.adviseLayer(k, vfs.AdviceSequential)
		m.resident[k] = true
		m.residentBytes.Add(pages * PageSize)
		m.extentsMapped.Add(1)
		m.majorFaultsEst.Add(pages)
		if m.budget > 0 {
			m.evictOverBudget(k)
		}
	}
	m.mu.Unlock()
}

// adviseLayer applies advice to layer k's data and pos extents. Advice
// failures are ignored: hints are best-effort by contract, and serving
// must not degrade because one madvise was refused.
func (m *MappedV2) adviseLayer(k int, a vfs.Advice) {
	l := &m.dir.layers[k]
	_ = m.mapping.Advise(l.dataOff, pagesFor(l.dataLen)*PageSize, a)
	_ = m.mapping.Advise(l.posOff, pagesFor(l.posLen)*PageSize, a)
}

// evictOverBudget drops least-recently-used resident extents (never the
// just-touched layer `keep`) until the accounted resident bytes fit the
// budget. Caller holds mu.
func (m *MappedV2) evictOverBudget(keep int) {
	for m.residentBytes.Load() > m.budget {
		victim := -1
		var oldest uint64
		for i, r := range m.resident {
			if !r || i == keep {
				continue
			}
			if victim < 0 || m.lastUse[i] < oldest {
				victim, oldest = i, m.lastUse[i]
			}
		}
		if victim < 0 {
			return // only the active layer is resident; nothing to evict
		}
		m.adviseLayer(victim, vfs.AdviceDontNeed)
		m.resident[victim] = false
		m.residentBytes.Add(-int64(m.dir.layers[victim].pages()) * PageSize)
		m.extentsMapped.Add(-1)
		m.evictions.Add(1)
	}
}

// ExtentsTouched returns the cumulative BeginLayer count — the "actual
// extents touched" side of the Eq. 2 predicted-vs-actual comparison.
func (m *MappedV2) ExtentsTouched() int64 { return m.extentsTouched.Load() }

// IO returns the walks' cumulative I/O in the paper's units: one random
// access per layer entered (BeginLayer) plus that layer's extent pages
// as sequential reads. Whether the pages were already resident is not
// the question: this is the access pattern, the quantity Eq. 2 prices.
func (m *MappedV2) IO() IOStats {
	return IOStats{
		RandomAccesses:  int(m.extentsTouched.Load()),
		SequentialReads: int(m.pagesTouched.Load()),
	}
}

// Evictions returns how many extents the budget forced out.
func (m *MappedV2) Evictions() int64 { return m.evictions.Load() }

// MajorFaultsEst returns the estimated pages faulted in.
func (m *MappedV2) MajorFaultsEst() int64 { return m.majorFaultsEst.Load() }

// ResidentBytes returns the accounted resident extent bytes.
func (m *MappedV2) ResidentBytes() int64 { return m.residentBytes.Load() }

// Vars returns the store's metrics as one expvar map value, keyed the
// way the serving layer publishes them.
func (m *MappedV2) Vars() expvar.Var {
	return expvar.Func(func() any {
		return map[string]int64{
			"mmap_extents_mapped":        m.extentsMapped.Load(),
			"mmap_extents_touched":       m.extentsTouched.Load(),
			"mmap_major_faults_est":      m.majorFaultsEst.Load(),
			"mmap_evictions":             m.evictions.Load(),
			"mmap_resident_bytes":        m.residentBytes.Load(),
			"mmap_resident_budget_bytes": m.budget,
			"mmap_file_bytes":            int64(len(m.buf)),
		}
	})
}

// Guard runs fn, which reads the mapping, on the calling goroutine with
// memory faults turned into an error. A file truncated or replaced
// under a live mapping makes the next read of a vanished page raise
// SIGBUS, which would otherwise kill the process; Guard recovers it as
// an error wrapping ErrCorrupt and quarantines the store, so every
// later Guard returns that error without running fn. A Close that
// arrives while fn runs waits for it; after Close, Guard returns an
// error wrapping fs.ErrClosed. fn must not hand the mapping to other
// goroutines (fault panics are per goroutine), and must not call Guard
// or Close, which would wait on the lock fn runs under. Panics other
// than memory faults propagate.
func (m *MappedV2) Guard(fn func()) (err error) {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if dead := m.dead.Load(); dead != nil {
		return *dead
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		err = fmt.Errorf("%w: memory fault at %#x reading the mapped file (truncated or replaced under the mapping?)", ErrCorrupt, fault.Addr())
		m.dead.CompareAndSwap(nil, &err)
	}()
	fn()
	return nil
}

// Close unmaps the file once the Guard calls in flight have returned;
// later Guard calls return an error wrapping fs.ErrClosed. Reads
// outside Guard get no such protection: Close is only safe once no
// index built from this store (nor any clone) can run another query
// outside Guard — their vector views alias the mapping. Long-lived
// servers simply never call it (the mapping lives until process exit);
// tests with bounded lifetimes and onion.DiskIndex, whose queries all
// run under Guard, do.
func (m *MappedV2) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	closed := fmt.Errorf("storage: mapped file: %w", fs.ErrClosed)
	m.dead.CompareAndSwap(nil, &closed)
	return m.mapping.Close()
}
