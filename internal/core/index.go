// Package core implements the Onion index of Chang et al. (SIGMOD 2000):
// a layered convex hull over a set of d-attribute records that answers
// top-N linear optimization queries
//
//	max_{topN} a1*x1 + a2*x2 + … + ad*xd
//
// by evaluating layers from the outermost inwards, touching at most N
// layers (paper Theorem 2).
//
// Layer 1 is the vertex set of the convex hull of all records; layer k
// is the vertex set of the hull of what remains after peeling layers
// 1..k-1. By the fundamental theorem of linear programming (paper
// Theorem 1) the layers form optimally linearly ordered sets: the best
// record of layer k beats every record of layers k+1, k+2, …, for every
// weight vector.
//
// This package is purely in-memory; package storage lays an index out in
// paged flat files and accounts for disk I/O the way the paper's
// evaluation does.
package core

import (
	"errors"
	"fmt"

	"repro/internal/hull"
)

// Record pairs an application identifier with its attribute vector.
type Record struct {
	ID     uint64
	Vector []float64
}

// Options configures index construction.
type Options struct {
	// Tol is the geometric tolerance passed to the hull; 0 = automatic.
	Tol float64
	// MaxLayers, when positive, stops peeling after that many layers and
	// places every remaining record in one final catch-all layer. Query
	// results remain correct (the catch-all is dominated by every outer
	// layer); only pruning granularity is lost. Zero means unbounded.
	MaxLayers int
	// Seed feeds the hull's deterministic joggle fallback.
	Seed int64
	// Progress, when non-nil, is called after each layer is peeled with
	// the 1-based layer number and the cumulative number of records
	// assigned. Useful for multi-minute million-record builds.
	Progress func(layer, assigned, total int)
	// Parallelism bounds the worker goroutines used by the hull scans
	// of construction and maintenance and by query scoring over large
	// layers. 0 selects one worker per CPU; 1 forces fully sequential
	// execution. The index built — layer membership, layer order,
	// joggle decisions — is identical for every setting, so seeded
	// replays (e.g. the serving layer's clone-and-reapply) stay valid
	// whatever the hardware. See SetParallelism to adjust it later.
	Parallelism int
	// Shells enables the paper's Section 6 spherical-shell intra-layer
	// pruning as a first-class index mode (see shellslab.go): columnar
	// slabs are ordered by angular bucket around each layer's centroid
	// and queries evaluate only the buckets whose score bound can still
	// matter. Results are bit-identical with shells on or off; only the
	// work statistics change. See SetShellPruning to toggle it later.
	Shells bool
}

// Index is an immutable-by-default Onion index. Maintenance methods
// (Insert, Delete, Update) mutate it in place; they are not safe for
// concurrent use with queries.
type Index struct {
	dim     int
	pts     [][]float64 // attribute vectors by internal position
	ids     []uint64    // external IDs, parallel to pts
	layers  [][]int     // layers[k] = positions in layer k+1 (0-based here)
	layerOf []int       // position -> layer index, -1 for freed positions
	posOf   map[uint64]int
	// posLazy defers posOf for FromColumnar indexes (columnar.go): nil
	// posOf with non-nil posLazy means the map materializes on first
	// use. Invariant: posOf == nil ⟺ posLazy != nil.
	posLazy *lazyPos
	// recLazy likewise defers pts and layerOf for FromColumnar indexes:
	// both are pure functions of the slabs, and the layer walk never
	// reads them, so a restart skips their O(n) fill. Invariant:
	// recLazy != nil ⟺ pts == nil on a non-empty index; read through
	// recViews()/layerOfPos(), mutate only after materializeRecs().
	recLazy *lazyRecs
	free    []int // freed positions available for reuse
	tol     float64
	seed    int64
	workers int // parallelism bound (0 = one per CPU, 1 = sequential)
	joggled bool

	// Columnar scoring layout (see slab.go): one slab per layer, always.
	// Derived, immutable state shared by clones; maintenance replaces
	// the slabs of the layers it re-peels.
	slabs    []layerSlab
	maxLayer int  // size of the largest layer
	noPrune  bool // disables bound-based layer and shell pruning (PruneNothing)

	// Spherical-shell tables (see shellslab.go): one per layer exactly
	// when shellMode is on, kept alongside the slabs.
	shellMode bool
	shellTabs []shellTable

	// Paging observer of the mmap serving mode (see columnar.go):
	// notified before each layer evaluation so the backing store can
	// advise and budget the layer's extents. nil = heap behavior.
	slabSrc SlabSource

	// Incremental write path (see delta.go): pending unlayered
	// mutations merged into every query, and the shared-base marker
	// that keeps structural maintenance off shallow clones.
	delta  *deltaState
	shared bool

	// Hierarchical compaction (see clustered.go): when attached,
	// Compact folds the delta per-cluster instead of re-hulling the
	// whole index. Immutable, shared by clones, detached by legacy
	// structural maintenance.
	cc ClusterCompactor
}

// Build peels records into a layered convex hull. Record IDs must be
// unique. The records slice is not retained; vectors are.
func Build(records []Record, opt Options) (*Index, error) {
	if len(records) == 0 {
		return nil, errors.New("core: no records")
	}
	dim := len(records[0].Vector)
	if dim == 0 {
		return nil, errors.New("core: zero-dimensional records")
	}
	ix := &Index{
		dim:       dim,
		pts:       make([][]float64, len(records)),
		ids:       make([]uint64, len(records)),
		layerOf:   make([]int, len(records)),
		posOf:     make(map[uint64]int, len(records)),
		tol:       opt.Tol,
		seed:      opt.Seed,
		workers:   opt.Parallelism,
		shellMode: opt.Shells,
	}
	for i, r := range records {
		if len(r.Vector) != dim {
			return nil, fmt.Errorf("core: record %d has dimension %d, want %d", i, len(r.Vector), dim)
		}
		if _, dup := ix.posOf[r.ID]; dup {
			return nil, fmt.Errorf("core: duplicate record ID %d", r.ID)
		}
		ix.pts[i] = r.Vector
		ix.ids[i] = r.ID
		ix.posOf[r.ID] = i
	}

	// The paper's index-creation procedure (Section 3.1): construct the
	// hull of the remaining set, emit its vertices as the next layer,
	// remove them, repeat until empty. The slabs are built once peeling
	// is done, so their memory never adds to the hull scans' peak.
	var layers [][]int
	remaining := make([]int, len(records))
	for i := range remaining {
		remaining[i] = i
	}
	assigned := 0
	inLayer := make([]bool, len(records))
	for len(remaining) > 0 {
		if opt.MaxLayers > 0 && len(layers) == opt.MaxLayers-1 {
			// Catch-all final layer.
			last := make([]int, len(remaining))
			copy(last, remaining)
			layers = append(layers, last)
			assigned += len(last)
			if opt.Progress != nil {
				opt.Progress(len(layers), assigned, len(records))
			}
			break
		}
		h, err := computeHull(ix.pts, remaining, hull.Options{Tol: opt.Tol, Seed: opt.Seed, Workers: ix.workers})
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", len(layers)+1, err)
		}
		if h.Joggled() {
			ix.joggled = true
		}
		layers = append(layers, h.Vertices)
		assigned += len(h.Vertices)
		for _, v := range h.Vertices {
			inLayer[v] = true
		}
		next := remaining[:0]
		for _, p := range remaining {
			if !inLayer[p] {
				next = append(next, p)
			}
		}
		remaining = next
		if opt.Progress != nil {
			opt.Progress(len(layers), assigned, len(records))
		}
	}
	for _, l := range layers {
		ix.appendLayer(l)
	}
	return ix, nil
}

// PruningMode selects whether the query path skips work by bounds.
// Both modes return bit-identical results; they differ only in the work
// statistics a query reports, which is why the paper-faithful
// benchmarks pick PruneNothing. The zero value is full pruning, so a
// fresh index defaults to the fastest sound path.
type PruningMode int

const (
	// PruneAll enables layer pruning (tryPrune) and, when the index was
	// built or configured with shell tables, spherical-shell intra-layer
	// pruning too. The default. The shells' own contribution is measured
	// by comparing an index with shell tables against one without
	// (SetShellPruning), both under PruneAll.
	PruneAll PruningMode = iota
	// PruneNothing is the paper-faithful full evaluation: every record
	// of every accessed layer is scored (the Table 1 accounting).
	PruneNothing
)

// String names the mode (flag/JSON friendly: all, none).
func (m PruningMode) String() string {
	switch m {
	case PruneAll:
		return "all"
	case PruneNothing:
		return "none"
	default:
		return "unknown"
	}
}

// ParsePruningMode parses the String form.
func ParsePruningMode(s string) (PruningMode, error) {
	switch s {
	case "all", "":
		return PruneAll, nil
	case "none":
		return PruneNothing, nil
	default:
		return 0, fmt.Errorf("core: unknown pruning mode %q (want all or none)", s)
	}
}

// SetPruningMode selects the bound-based pruning behavior of the query
// path. Results are identical in every mode; shell pruning additionally
// requires the shell tables to be present (Options.Shells or
// SetShellPruning). Not safe to call concurrently with running queries.
func (ix *Index) SetPruningMode(m PruningMode) { ix.noPrune = m == PruneNothing }

// PruningMode reports the current pruning mode (whether shell pruning
// takes effect still depends on the shell tables being present).
func (ix *Index) PruningMode() PruningMode {
	if ix.noPrune {
		return PruneNothing
	}
	return PruneAll
}

// SetShellPruning enables or disables the spherical-shell index mode at
// runtime: on builds the shell tables (bucket-ordering the slabs), off
// drops them. The slab row order is part of the derived state either
// way — queries never depend on it — so toggling is cheap and safe
// between queries, but not concurrently with them.
func (ix *Index) SetShellPruning(on bool) {
	switch {
	case !on:
		ix.shellTabs = nil
	case !ix.shellMode:
		ix.buildShellTables()
	}
	ix.shellMode = on
}

// ShellPruning reports whether the shell index mode is enabled (shell
// pruning only takes effect in PruneAll mode).
func (ix *Index) ShellPruning() bool { return ix.shellMode }

// SetParallelism adjusts the worker bound used by subsequent
// maintenance hulls and large-layer query scoring: 0 means one worker
// per CPU, 1 fully sequential, n exactly n goroutines. Results are
// identical at every setting. Useful for indexes that were loaded from
// disk (construction options are not persisted) and for capping the
// CPU share of a co-tenant process. Not safe to call concurrently with
// running queries or maintenance.
func (ix *Index) SetParallelism(n int) { ix.workers = n }

// Parallelism returns the configured worker bound (0 = one per CPU).
func (ix *Index) Parallelism() int { return ix.workers }

// Dim returns the number of numerical attributes.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of live records, looking through any pending
// delta: tombstoned base records are excluded, delta inserts included.
func (ix *Index) Len() int {
	n := ix.baseLen()
	if ix.delta != nil {
		n += len(ix.delta.recs) - len(ix.delta.dead)
	}
	return n
}

// NumLayers returns the number of layers.
func (ix *Index) NumLayers() int { return len(ix.layers) }

// LayerSize returns the number of records in 0-based layer k.
func (ix *Index) LayerSize(k int) int { return len(ix.layers[k]) }

// LayerSizes returns the size of every layer, outermost first. The
// returned slice is freshly allocated.
func (ix *Index) LayerSizes() []int {
	s := make([]int, len(ix.layers))
	for k, l := range ix.layers {
		s[k] = len(l)
	}
	return s
}

// Layer returns the records of 0-based layer k, in storage order.
func (ix *Index) Layer(k int) []Record {
	pts, _ := ix.recViews()
	out := make([]Record, len(ix.layers[k]))
	for i, p := range ix.layers[k] {
		out[i] = Record{ID: ix.ids[p], Vector: pts[p]}
	}
	return out
}

// LayerOf returns the 0-based layer of the record with the given ID, or
// ok=false if no such record exists. Records pending in the delta
// buffer are not layered yet and report layer -1.
func (ix *Index) LayerOf(id uint64) (int, bool) {
	if ix.delta != nil {
		if _, ok := ix.delta.byID[id]; ok {
			return -1, true
		}
		if ix.delta.dead[id] {
			return 0, false
		}
	}
	p, ok := ix.posMap()[id]
	if !ok {
		return 0, false
	}
	return ix.layerOfPos(p), true
}

// Vector returns the attribute vector of the record with the given ID,
// looking through any pending delta.
func (ix *Index) Vector(id uint64) ([]float64, bool) {
	if ix.delta != nil {
		if i, ok := ix.delta.byID[id]; ok {
			return ix.delta.recs[i].Vector, true
		}
		if ix.delta.dead[id] {
			return nil, false
		}
	}
	p, ok := ix.posMap()[id]
	if !ok {
		return nil, false
	}
	pts, _ := ix.recViews()
	return pts[p], true
}

// BaseVector returns the attribute vector of a layered base record,
// ignoring any pending delta: a record tombstoned in the delta still
// resolves, a delta insert does not. This is the lookup a rehydrated
// cluster spec needs — the spec describes the checkpoint base, and it
// materializes lazily, possibly after the delta has buffered deletes
// of the very records it must re-layer.
func (ix *Index) BaseVector(id uint64) ([]float64, bool) {
	p, ok := ix.posMap()[id]
	if !ok {
		return nil, false
	}
	pts, _ := ix.recViews()
	return pts[p], true
}

// Joggled reports whether any layer's hull needed the perturbation
// fallback during construction or maintenance (see package hull).
func (ix *Index) Joggled() bool { return ix.joggled }

// Records returns all live records, looking through any pending delta
// (tombstoned base records are skipped, delta inserts appended). The
// order is unspecified.
func (ix *Index) Records() []Record {
	out := make([]Record, 0, ix.Len())
	dead := ix.deadPosSet()
	pts, _ := ix.recViews()
	for _, layer := range ix.layers {
		for _, p := range layer {
			if dead != nil && dead[p] {
				continue
			}
			out = append(out, Record{ID: ix.ids[p], Vector: pts[p]})
		}
	}
	if ix.delta != nil {
		out = append(out, ix.delta.recs...)
	}
	return out
}
