package core

import (
	"fmt"
	"sort"
)

// Hierarchical (clustered) compaction — the paper's Section 4 structure
// put to work on the write path. A flat Compact folds the delta buffer
// with the batch cascades, whose hull work grows with the whole index.
// A ClusterCompactor instead maintains one layered Onion per k-means
// cluster and folds a delta by re-peeling only the clusters whose
// membership changed, so fold cost is bounded by delta size × cluster
// size rather than corpus size.
//
// The clustered index a fold produces keeps the flat query path intact
// by emitting its global layer partition as per-level unions: global
// layer L is the concatenation, over clusters, of each cluster's own
// layer L. That union partition is still optimally linearly ordered
// (paper Definition 1): any record on union level m > k belongs to some
// cluster c and is dominated, for every weight vector, by c's level-k
// maximum — which sits on union level k. The pruning bounds stay sound
// for the same reason: a cluster's level-m points lie inside the convex
// hull of its level-k points, and a linear function over a hull is
// maximized at a vertex, so union layer k's slab bound covers every
// deeper record. Queries therefore run the ordinary layered walk and
// return bit-identical (ID, Score) rankings; only the Layer annotation
// of deep results may differ from a flat rebuild's.
//
// The compactor is an acceleration structure, never load-bearing for
// correctness: legacy structural maintenance (the Section 3.4 cascades)
// detaches it, and a detached index simply compacts flat again.

// ClusterCompactor folds delta buffers cluster-by-cluster. Implemented
// by hierarchy.Compactor; declared here so core need not import it.
//
// Implementations must be immutable: Fold returns a successor compactor
// and leaves the receiver untouched, so compactors can be shared across
// index clones (Clone/CloneDelta carry the pointer) and a background
// fold can run against a published snapshot.
type ClusterCompactor interface {
	// Fold applies the delta — inserts joining, deletes (sorted base
	// record IDs) leaving — re-peels only the affected clusters, and
	// returns the successor compactor together with the new global
	// layer partition (per-level unions, outermost first, no empty
	// layers). An empty partition means every record was deleted.
	Fold(inserts []Record, deletes []uint64) (next ClusterCompactor, layers [][]Record, err error)
	// Len reports how many records the compactor's clusters hold. It
	// must always equal the live base record count of the index the
	// compactor is attached to.
	Len() int
}

// SetClusterCompactor attaches (or, with nil, detaches) a hierarchical
// compactor. Compact and CompactedClone then fold the delta through it
// instead of the flat batch cascades. The compactor must describe
// exactly the index's current base record set, so attachment requires
// an empty delta buffer and a matching record count — attach right
// after Build/Load, or after a Compact. Structural maintenance through
// the legacy cascading mutators detaches the compactor (the cascades
// re-layer the base behind its back); delta mutations keep it.
func (ix *Index) SetClusterCompactor(cc ClusterCompactor) error {
	if cc == nil {
		ix.cc = nil
		return nil
	}
	if ix.delta != nil {
		return fmt.Errorf("core: attach compactor: delta buffer pending; compact first")
	}
	if got, want := cc.Len(), ix.baseLen(); got != want {
		return fmt.Errorf("core: attach compactor: compactor holds %d records, index holds %d", got, want)
	}
	ix.cc = cc
	return nil
}

// ClusterCompactor returns the attached hierarchical compactor, or nil.
func (ix *Index) ClusterCompactor() ClusterCompactor { return ix.cc }

// compactClustered folds the pending delta through the attached
// compactor and replaces the receiver with the re-layered result.
// Unlike the flat cascade path it is atomic: the fold builds an
// entirely new index (it never mutates the receiver's base arrays,
// which may be shared with published snapshots), so on error the
// receiver — delta included — is left exactly as it was.
func (ix *Index) compactClustered() error {
	if ix.delta == nil {
		return nil
	}
	d := ix.delta
	deadIDs := make([]uint64, 0, len(d.dead))
	for id := range d.dead {
		deadIDs = append(deadIDs, id)
	}
	sort.Slice(deadIDs, func(i, j int) bool { return deadIDs[i] < deadIDs[j] })
	cc2, layers, err := ix.cc.Fold(d.recs, deadIDs)
	if err != nil {
		return fmt.Errorf("core: clustered compact: %w", err)
	}
	opt := Options{Tol: ix.tol, Seed: ix.seed, Parallelism: ix.workers, Shells: ix.shellMode}
	var next *Index
	if len(layers) == 0 {
		next, err = Empty(ix.dim, opt)
	} else {
		next, err = FromLayers(layers, opt)
	}
	if err != nil {
		return fmt.Errorf("core: clustered compact: %w", err)
	}
	if cc2.Len() != len(next.posOf) {
		return fmt.Errorf("core: clustered compact: compactor holds %d records, fold produced %d", cc2.Len(), len(next.posOf))
	}
	next.joggled = ix.joggled
	next.noPrune = ix.noPrune
	next.cc = cc2
	*ix = *next
	return nil
}

// cloneForFold returns the minimal clone a clustered fold needs: shared
// base fields plus a deep copy of the delta bookkeeping. Unlike
// CloneDelta it does not mark the origin shared — the fold never
// touches the base arrays, it replaces them wholesale — so a
// checkpoint or background compaction leaves the source index's
// mutability untouched.
func (ix *Index) cloneForFold() *Index {
	cp := &Index{
		dim:       ix.dim,
		pts:       ix.pts,
		ids:       ix.ids,
		layers:    ix.layers,
		layerOf:   ix.layerOf,
		posOf:     ix.posOf,
		posLazy:   ix.posLazy,
		recLazy:   ix.recLazy,
		free:      ix.free,
		tol:       ix.tol,
		seed:      ix.seed,
		workers:   ix.workers,
		joggled:   ix.joggled,
		slabs:     ix.slabs,
		maxLayer:  ix.maxLayer,
		noPrune:   ix.noPrune,
		shellMode: ix.shellMode,
		shellTabs: ix.shellTabs,
		slabSrc:   ix.slabSrc,
		cc:        ix.cc,
		shared:    true,
	}
	if ix.delta != nil {
		cp.delta = ix.delta.clone()
	}
	return cp
}
