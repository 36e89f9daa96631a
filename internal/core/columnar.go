package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/shellgeom"
)

// Columnar export/import — the seam the mmap serving mode feeds on.
//
// The checkpoint v2 format (internal/storage) persists exactly the
// derived columnar state queries run over: each layer's row-major slab,
// its pruning bounds, and (in shell mode) the bucket tables over the
// bucket-ordered rows. ExportColumnar emits that state; FromColumnar
// reconstructs a serving index from it WITHOUT re-deriving anything —
// slab arrays are adopted by reference (they may view a read-only
// memory mapping and must never be written), bounds are trusted as
// written, and everything queries never touch is deferred until
// something actually needs it: the ID→position map (posLazy) and the
// per-record vector/layer views (recLazy) both materialize on first
// use. That deferral is what makes a v2 restart near-instant: the only
// O(n) work left on the load path is the position-validation sweep and
// the per-layer ID gather the walk's result conversion needs.
//
// Bit-identity across the heap and mmap paths rests on the positions:
// topk tie-breaks on internal position, so the export canonicalizes
// positions to the contiguous per-layer numbering FromLayers would
// assign (layer k occupies [base_k, base_k+count_k)), and FromColumnar
// reproduces exactly that numbering. A v2 round trip of any index —
// even one whose live positions were scattered by maintenance — is
// therefore bit-identical to a v1 (FromLayers) reload of the same
// layer partition.

// ColumnarLayer is one layer's persisted columnar state: the slab rows
// (possibly bucket-ordered by the shell tables), the canonical internal
// positions parallel to the rows, and the layer-level pruning bounds.
type ColumnarLayer struct {
	Data []float64 // row-major count×dim vectors, slab row order
	// Pos lists the canonical internal positions, parallel to rows. nil
	// means the identity: row j holds the layer's j-th canonical
	// position, which is every layer outside shell mode.
	Pos     []int
	MaxNorm float64   // max ‖x‖ over the layer (Cauchy–Schwarz bound basis)
	AxMin   []float64 // per-axis minimum over the layer
	AxMax   []float64 // per-axis maximum over the layer
	Shell   *ShellTableExport
}

// ShellTableExport is one layer's persisted shell table (shellslab.go).
type ShellTableExport struct {
	Center     []float64
	CNorm      float64
	CosA, SinA float64
	Buckets    []ShellBucketExport
}

// ShellBucketExport is one persisted angular bucket. Axis is the index
// into the dimension's shellgeom Geometry.Axes — the cone axes are a
// pure function of the dimension, so persisting the index (rather than
// the vector) keeps the format compact and the reload exact.
type ShellBucketExport struct {
	Lo, Hi  int
	Axis    int
	RMax    float64
	MaxNorm float64
	AxMin   []float64
	AxMax   []float64
}

// ExportColumnar returns the index's columnar state with positions
// canonicalized to the contiguous per-layer numbering (see the package
// comment above); a layer whose rows are in canonical order gets a nil
// Pos. The receiver is never mutated — safe on a published snapshot —
// and the returned Data slices alias the index's slabs, so the caller
// must treat them as read-only. Requires an empty delta buffer: the
// unlayered delta has no columnar form, so a checkpoint folds it first
// (CompactedClone).
func (ix *Index) ExportColumnar() ([]ColumnarLayer, error) {
	if ix.delta != nil {
		return nil, errors.New("core: export columnar: delta buffer pending; compact first")
	}
	newPos := ix.canonicalPositions()
	out := make([]ColumnarLayer, len(ix.layers))
	var geo *shellgeom.Geometry
	if ix.shellMode {
		g := shellgeom.For(ix.dim)
		geo = &g
	}
	base := 0
	for k := range ix.layers {
		cl := &out[k]
		sl := &ix.slabs[k]
		cl.Data = sl.data
		cl.Pos = remapPositions(sl.pos, newPos, base)
		base += len(sl.pos)
		cl.MaxNorm = sl.maxNorm
		cl.AxMin = sl.axMin
		cl.AxMax = sl.axMax
		if ix.shellMode {
			t := &ix.shellTabs[k]
			ex := &ShellTableExport{
				Center:  t.center,
				CNorm:   t.cnorm,
				CosA:    t.cosA,
				SinA:    t.sinA,
				Buckets: make([]ShellBucketExport, len(t.buckets)),
			}
			for bi := range t.buckets {
				b := &t.buckets[bi]
				ai, err := geometryAxisIndex(geo, b.axis)
				if err != nil {
					return nil, fmt.Errorf("core: export columnar: layer %d bucket %d: %w", k+1, bi, err)
				}
				ex.Buckets[bi] = ShellBucketExport{
					Lo: b.lo, Hi: b.hi, Axis: ai,
					RMax: b.rmax, MaxNorm: b.maxNorm,
					AxMin: b.axMin, AxMax: b.axMax,
				}
			}
			cl.Shell = ex
		}
	}
	return out, nil
}

// PositionOrderedIDs returns the record IDs in canonical position order
// — the ids array FromColumnar expects, and the only per-record state
// checkpoint v2 persists outside the slabs.
func (ix *Index) PositionOrderedIDs() []uint64 {
	newPos := ix.canonicalPositions()
	total := 0
	for _, l := range ix.layers {
		total += len(l)
	}
	ids := make([]uint64, total)
	for _, layer := range ix.layers {
		for _, p := range layer {
			ids[newPos[p]] = ix.ids[p]
		}
	}
	return ids
}

// canonicalPositions maps each live position to the contiguous
// per-layer numbering FromLayers assigns: layer k's i-th record gets
// base_k + i. Freed positions (maintenance holes) map to -1.
func (ix *Index) canonicalPositions() []int {
	newPos := make([]int, ix.posCount())
	for i := range newPos {
		newPos[i] = -1
	}
	at := 0
	for _, layer := range ix.layers {
		for _, p := range layer {
			newPos[p] = at
			at++
		}
	}
	return newPos
}

// remapPositions returns pos renumbered through newPos, or nil when the
// result is the identity from base (row i holds position base+i).
func remapPositions(pos, newPos []int, base int) []int {
	for i, p := range pos {
		if newPos[p] != base+i {
			out := make([]int, len(pos))
			for j, q := range pos {
				out[j] = newPos[q]
			}
			return out
		}
	}
	return nil
}

// geometryAxisIndex recovers a bucket's geometry index from its shared
// axis vector by value match (bucket axes alias the Geometry's table).
func geometryAxisIndex(g *shellgeom.Geometry, axis []float64) (int, error) {
	for gi, ga := range g.Axes {
		if len(ga) != len(axis) {
			continue
		}
		same := true
		for j := range ga {
			if ga[j] != axis[j] {
				same = false
				break
			}
		}
		if same {
			return gi, nil
		}
	}
	return 0, errors.New("bucket axis not in geometry table")
}

// FromColumnar reconstructs a serving index from persisted columnar
// state without re-deriving it. Slices are adopted by reference — Data,
// Pos, the bound arrays, and the shell exports may all view a read-only
// memory mapping and are NEVER written by the index (a structural
// mutation builds fresh slabs for the layers it re-peels and keeps the
// others as they are). ids must list record IDs in canonical position
// order; uniqueness is trusted, not checked — validating it would cost
// exactly the O(n) map build this path exists to defer (the checkpoint
// CRC and the v2 writer's invariants stand in for the check).
//
// The ID→position map (posLazy) and the per-record vector/layer views
// (recLazy) are deferred: the layer walk needs neither, so a restart
// serves immediately and each materializes once, on first use (posMap
// for LayerOf/Vector/delta lookups, recViews for record enumeration),
// safely under concurrent readers. Per-result
// layer attribution needs no view at all — canonical numbering makes
// position→layer a binary search over the layer bases (layerOfPos).
//
// When opt.Shells is set but the persisted state carries no shell
// tables, they are rebuilt on the heap (bucket-ordering fresh copies of
// the slabs); persisted tables are adopted as-is regardless of
// opt.Shells — SetShellPruning toggles their use at runtime.
func FromColumnar(dim int, layers []ColumnarLayer, ids []uint64, opt Options) (*Index, error) {
	if dim <= 0 {
		return nil, errors.New("core: dimension must be positive")
	}
	if len(layers) == 0 {
		if len(ids) != 0 {
			return nil, fmt.Errorf("core: columnar: %d ids but no layers", len(ids))
		}
		return Empty(dim, opt)
	}
	total := 0
	withShells := layers[0].Shell != nil
	for k := range layers {
		l := &layers[k]
		n := len(l.Data) / dim
		if l.Pos != nil {
			n = len(l.Pos)
		}
		if n == 0 {
			return nil, fmt.Errorf("core: columnar: layer %d is empty", k+1)
		}
		if len(l.Data) != n*dim {
			return nil, fmt.Errorf("core: columnar: layer %d has %d values, want %d", k+1, len(l.Data), n*dim)
		}
		if len(l.AxMin) != dim || len(l.AxMax) != dim {
			return nil, fmt.Errorf("core: columnar: layer %d bound box has wrong dimension", k+1)
		}
		if (l.Shell != nil) != withShells {
			return nil, errors.New("core: columnar: shell tables must cover every layer or none")
		}
		total += n
	}
	if len(ids) != total {
		return nil, fmt.Errorf("core: columnar: %d ids for %d records", len(ids), total)
	}

	ix := &Index{
		dim:       dim,
		ids:       ids,
		posLazy:   &lazyPos{},
		recLazy:   &lazyRecs{},
		tol:       opt.Tol,
		seed:      opt.Seed,
		workers:   opt.Parallelism,
		shellMode: withShells || opt.Shells,
	}
	ix.layers = make([][]int, len(layers))
	slabs := make([]layerSlab, len(layers))
	maxLayer := 0
	var geo *shellgeom.Geometry
	var tabs []shellTable
	if withShells {
		g := shellgeom.For(dim)
		geo = &g
		tabs = make([]shellTable, len(layers))
	}
	// One arena of sequential ints backs every layer slice, mirroring the
	// canonical numbering: layer k is exactly [base_k, base_k+count_k).
	posArena := make([]int, total)
	for i := range posArena {
		posArena[i] = i
	}
	// One bit per canonical position: the validation sweep below marks
	// each as it is claimed, so a corrupt Pos column (duplicate, out of
	// range) cannot produce an index that silently misattributes
	// vectors. A bitmap instead of the per-record vector views keeps the
	// load path free of the O(n) slice-header fill — those views are
	// deferred to recLazy.
	seen := make([]uint64, (total+63)/64)
	base := 0
	for k := range layers {
		l := &layers[k]
		n := len(l.Data) / dim
		for j, p := range l.Pos {
			if p < base || p >= base+n {
				return nil, fmt.Errorf("core: columnar: layer %d row %d position %d outside [%d, %d)", k+1, j, p, base, base+n)
			}
			if seen[p>>6]&(1<<(p&63)) != 0 {
				return nil, fmt.Errorf("core: columnar: layer %d: duplicate position %d", k+1, p)
			}
			seen[p>>6] |= 1 << (p & 63)
		}
		ix.layers[k] = posArena[base : base+n : base+n]
		// An identity layer's slab rows are the layer slice itself, as
		// FromLayers shares them; nothing writes into either (mutators
		// build fresh slices for the layers they re-peel).
		pos := l.Pos
		if pos == nil {
			pos = ix.layers[k]
		}
		slabIDs := make([]uint64, n)
		for j, p := range pos {
			slabIDs[j] = ids[p]
		}
		slabs[k] = layerSlab{
			data: l.Data, ids: slabIDs, pos: pos,
			maxNorm: l.MaxNorm, axMin: l.AxMin, axMax: l.AxMax,
		}
		if n > maxLayer {
			maxLayer = n
		}
		if withShells {
			t, err := importShellTable(l.Shell, geo, dim, n, k)
			if err != nil {
				return nil, err
			}
			tabs[k] = t
		}
		base += n
	}
	ix.slabs = slabs
	ix.maxLayer = maxLayer
	ix.shellTabs = tabs
	if opt.Shells && tabs == nil {
		ix.buildShellTables()
	}
	return ix, nil
}

// importShellTable validates and adopts one persisted shell table. The
// buckets must tile the layer's rows exactly — consumeLayerShells
// accounts skipped records as n − evaluated, which is only sound when
// every row belongs to exactly one bucket run.
func importShellTable(ex *ShellTableExport, g *shellgeom.Geometry, dim, n, k int) (shellTable, error) {
	if len(ex.Center) != dim {
		return shellTable{}, fmt.Errorf("core: columnar: layer %d shell center has wrong dimension", k+1)
	}
	t := shellTable{
		center: ex.Center, cnorm: ex.CNorm,
		cosA: ex.CosA, sinA: ex.SinA,
		buckets: make([]shellBucket, len(ex.Buckets)),
	}
	at := 0
	for bi := range ex.Buckets {
		b := &ex.Buckets[bi]
		if b.Lo != at || b.Hi < b.Lo || b.Hi > n {
			return shellTable{}, fmt.Errorf("core: columnar: layer %d bucket %d range [%d, %d) breaks the tiling at %d", k+1, bi, b.Lo, b.Hi, at)
		}
		if b.Axis < 0 || b.Axis >= len(g.Axes) {
			return shellTable{}, fmt.Errorf("core: columnar: layer %d bucket %d axis %d outside geometry (%d axes)", k+1, bi, b.Axis, len(g.Axes))
		}
		if len(b.AxMin) != dim || len(b.AxMax) != dim {
			return shellTable{}, fmt.Errorf("core: columnar: layer %d bucket %d bound box has wrong dimension", k+1, bi)
		}
		t.buckets[bi] = shellBucket{
			lo: b.Lo, hi: b.Hi, axis: g.Axes[b.Axis],
			rmax: b.RMax, maxNorm: b.MaxNorm,
			axMin: b.AxMin, axMax: b.AxMax,
		}
		at = b.Hi
	}
	if at != n {
		return shellTable{}, fmt.Errorf("core: columnar: layer %d buckets cover %d of %d rows", k+1, at, n)
	}
	return t, nil
}

// lazyPos defers the ID→position map of a FromColumnar index until
// first use. A pointer field on Index (never embedded by value) so the
// whole-struct replacements the maintenance paths perform (*ix = *next)
// don't copy a sync.Once.
type lazyPos struct {
	once sync.Once
	m    map[uint64]int
}

// posMap returns the ID→position map, materializing a deferred one
// exactly once. Safe under concurrent readers of a shared snapshot: a
// deferred index has no freed positions (FromColumnar numbers every
// record), so the map is a pure function of ids.
func (ix *Index) posMap() map[uint64]int {
	if ix.posOf != nil {
		return ix.posOf
	}
	lp := ix.posLazy
	lp.once.Do(func() {
		m := make(map[uint64]int, len(ix.ids))
		for i, id := range ix.ids {
			m[id] = i
		}
		lp.m = m
	})
	return lp.m
}

// materializePosOf gives a mutator an owned, writable posOf. It always
// builds a fresh map — the lazily built one may be shared with clones —
// and must only run after mutable() has established single ownership.
func (ix *Index) materializePosOf() {
	if ix.posOf != nil {
		return
	}
	m := make(map[uint64]int, len(ix.ids))
	for i, id := range ix.ids {
		m[id] = i
	}
	ix.posOf = m
	ix.posLazy = nil
}

// baseLen counts the live base records without forcing a deferred map:
// a deferred index has no freed positions, so len(ids) is exact.
func (ix *Index) baseLen() int {
	if ix.posOf == nil && ix.posLazy != nil {
		return len(ix.ids)
	}
	return len(ix.posOf)
}

// lazyRecs defers the per-record vector views (pts) and the
// position→layer array (layerOf) of a FromColumnar index until first
// use. Both are pure functions of the slabs — every row's canonical
// position, vector view and layer are right there in the slab columns
// — so queries, which score the slabs directly, never pay the O(n)
// fill. A pointer field on Index (never embedded by value) so the
// whole-struct replacements the maintenance paths perform (*ix = *next)
// don't copy a sync.Once.
type lazyRecs struct {
	once    sync.Once
	pts     [][]float64
	layerOf []int
}

// recViews returns the per-record views, materializing deferred ones
// exactly once. Safe under concurrent readers of a shared snapshot:
// the build only reads the immutable slabs. Forcing is reserved for
// the record-enumeration paths (Vector, Layer, Records, Clone) — the
// layer walk itself never calls it.
func (ix *Index) recViews() ([][]float64, []int) {
	if ix.recLazy == nil {
		return ix.pts, ix.layerOf
	}
	lr := ix.recLazy
	lr.once.Do(func() {
		lr.pts, lr.layerOf = ix.buildRecViews()
	})
	return lr.pts, lr.layerOf
}

// buildRecViews scatters the slab columns into position-indexed pts
// and layerOf arrays. Only valid on a canonical (FromColumnar) index,
// whose slabs cover every position exactly once.
func (ix *Index) buildRecViews() ([][]float64, []int) {
	total := len(ix.ids)
	pts := make([][]float64, total)
	layerOf := make([]int, total)
	for k := range ix.slabs {
		sl := &ix.slabs[k]
		for j, p := range sl.pos {
			pts[p] = sl.data[j*ix.dim : (j+1)*ix.dim : (j+1)*ix.dim]
			layerOf[p] = k
		}
	}
	return pts, layerOf
}

// materializeRecs gives a mutator owned, writable pts/layerOf arrays.
// It always builds fresh ones — the lazily built pair may be shared
// with clones — and must only run after mutable() has established
// single ownership (the materializePosOf contract).
func (ix *Index) materializeRecs() {
	if ix.recLazy == nil {
		return
	}
	ix.pts, ix.layerOf = ix.buildRecViews()
	ix.recLazy = nil
}

// layerOfPos maps an internal position to its 0-based layer without
// forcing the deferred views: a deferred index is canonically numbered
// — layer k occupies [base_k, base_k+count_k) and each layer slice is
// an arena view whose first element IS base_k — so the layer is a
// binary search over the bases. The walk's result conversion calls
// this per emitted result; O(log layers) there beats an O(n) fill on
// the restart path.
func (ix *Index) layerOfPos(p int) int {
	if ix.recLazy == nil {
		return ix.layerOf[p]
	}
	return sort.Search(len(ix.layers), func(k int) bool { return ix.layers[k][0] > p }) - 1
}

// posCount returns the size of the internal position space (live +
// freed), without forcing deferred views: a deferred index has no
// freed positions, so len(ids) is exact.
func (ix *Index) posCount() int {
	if ix.recLazy != nil {
		return len(ix.ids)
	}
	return len(ix.pts)
}

// SlabSource observes the query walk's layer accesses — the paging seam
// of the mmap serving mode. The heap path is a nil source (today's
// behavior, zero overhead); the mmap path (storage.MappedV2) uses the
// notifications to issue madvise hints and run its resident-bytes
// budget, making layer extents the unit of I/O the OS page cache
// manages. The hook fires after layer pruning decides a layer WILL be
// evaluated, so pruned layers cost no I/O — the point of the paper's
// Eq. 2 accounting.
type SlabSource interface {
	// BeginLayer is called before layer k's rows are scored. It may be
	// called concurrently by queries sharing a snapshot.
	BeginLayer(k int)
}

// SetSlabSource attaches (or, with nil, detaches) the paging observer.
// Clones share it; any structural mutation detaches it, since the
// layers it numbers move.
func (ix *Index) SetSlabSource(src SlabSource) { ix.slabSrc = src }

// noteLayerAccess fires the paging hook, if any.
func (ix *Index) noteLayerAccess(k int) {
	if ix.slabSrc != nil {
		ix.slabSrc.BeginLayer(k)
	}
}
