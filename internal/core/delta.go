package core

import (
	"fmt"
	"sort"

	"repro/internal/topk"
)

// LSM-style incremental write path. The paper's Section 3.4 cascade
// re-hulls every affected layer per mutation batch, so publish cost
// grows with the index. The delta buffer decouples acknowledgement
// from re-layering: mutations land in a small unlayered side
// structure — inserts as brute-force-scored records, deletes as
// tombstones over the layered base — and every query merges the delta
// into its result stream on the index's total order (score descending,
// ID ascending). Answers are bit-identical to a full rebuild while the
// cost of applying a mutation batch is O(delta), independent of the
// corpus. A compaction (Compact/CompactedClone) folds the delta back
// into the layered base with the existing batch cascades when the
// buffer crosses a size threshold; the serving layer runs that in the
// background off the publish path.
//
// Ownership discipline: an index carrying a delta must only receive
// delta mutations (InsertDelta/DeleteDelta/UpdateDelta). The legacy
// cascading mutators refuse while a delta is pending, and they refuse
// on shallow clones (CloneDelta) outright, because those share the
// base arrays with their origin — the single-mutator serving loop
// relies on both guards.

// deltaState holds the pending unlayered mutations.
type deltaState struct {
	recs    []Record        // live delta inserts; vectors owned by the delta
	byID    map[uint64]int  // record ID -> index into recs
	dead    map[uint64]bool // tombstoned base record IDs
	deadPos map[int]bool    // tombstoned base positions (mirror of dead)
}

func newDeltaState() *deltaState {
	return &deltaState{
		byID:    make(map[uint64]int),
		dead:    make(map[uint64]bool),
		deadPos: make(map[int]bool),
	}
}

// clone deep-copies the delta bookkeeping. Vectors are shared — nothing
// in this package ever writes into a stored vector.
func (d *deltaState) clone() *deltaState {
	cp := &deltaState{
		recs:    append([]Record(nil), d.recs...),
		byID:    make(map[uint64]int, len(d.byID)),
		dead:    make(map[uint64]bool, len(d.dead)),
		deadPos: make(map[int]bool, len(d.deadPos)),
	}
	for id, i := range d.byID {
		cp.byID[id] = i
	}
	for id := range d.dead {
		cp.dead[id] = true
	}
	for p := range d.deadPos {
		cp.deadPos[p] = true
	}
	return cp
}

// errDeltaPending guards the legacy cascading mutators: folding the
// delta first (Compact) is required before structural maintenance, or
// the cascade would re-layer a base the delta still shadows.
var errDeltaPending = fmt.Errorf("core: delta buffer pending; compact before structural maintenance")

// errSharedBase guards every structural mutation on a shallow clone:
// CloneDelta shares the base arrays with its origin, so a cascade here
// would corrupt a published snapshot.
var errSharedBase = fmt.Errorf("core: index shares its base arrays (CloneDelta); deep Clone before structural maintenance")

// mutable reports whether the legacy cascading mutators may run.
func (ix *Index) mutable() error {
	if ix.shared {
		return errSharedBase
	}
	if ix.delta != nil {
		return errDeltaPending
	}
	return nil
}

// HasDelta reports whether unlayered mutations are pending.
func (ix *Index) HasDelta() bool { return ix.delta != nil }

// DeltaLen returns the pending mutation count (delta inserts plus
// tombstones) — the quantity a compaction threshold should watch.
func (ix *Index) DeltaLen() int {
	if ix.delta == nil {
		return 0
	}
	return len(ix.delta.recs) + len(ix.delta.dead)
}

// ensureDelta returns the delta, creating it on first use.
func (ix *Index) ensureDelta() *deltaState {
	if ix.delta == nil {
		ix.delta = newDeltaState()
	}
	return ix.delta
}

// maybeDropDelta restores the no-delta invariant once the buffer
// empties (e.g. a delta insert deleted again before compaction).
func (ix *Index) maybeDropDelta() {
	d := ix.delta
	if d != nil && len(d.recs) == 0 && len(d.dead) == 0 {
		ix.delta = nil
	}
}

// deltaHas reports whether id currently resolves to a live record,
// looking through the delta: a delta insert wins, a tombstone hides
// the base copy.
func (ix *Index) deltaHas(id uint64) bool {
	if ix.delta != nil {
		if _, ok := ix.delta.byID[id]; ok {
			return true
		}
		if ix.delta.dead[id] {
			return false
		}
	}
	_, ok := ix.posMap()[id]
	return ok
}

// deadPosSet returns the tombstoned-position set, or nil when there are
// no tombstones (the common case the query hot path branches on once
// per layer).
func (ix *Index) deadPosSet() map[int]bool {
	if ix.delta == nil || len(ix.delta.deadPos) == 0 {
		return nil
	}
	return ix.delta.deadPos
}

// InsertDelta appends records to the delta buffer: O(batch) per call,
// no hull work. Validation is all-or-nothing — a dimension mismatch or
// duplicate ID (against the merged view and within the batch) rejects
// the whole batch before any mutation, matching InsertBatch. The
// columnar slabs stay — they describe the base layers, which are
// untouched.
func (ix *Index) InsertDelta(recs []Record) error {
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if len(r.Vector) != ix.dim {
			return fmt.Errorf("core: insert dimension %d, want %d", len(r.Vector), ix.dim)
		}
		if ix.deltaHas(r.ID) || seen[r.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
		}
		seen[r.ID] = true
	}
	d := ix.ensureDelta()
	for _, r := range recs {
		vec := make([]float64, len(r.Vector))
		copy(vec, r.Vector)
		d.byID[r.ID] = len(d.recs)
		d.recs = append(d.recs, Record{ID: r.ID, Vector: vec})
	}
	return nil
}

// DeleteDelta removes records through the delta buffer: a delta-resident
// ID leaves the buffer, a base-resident ID gains a tombstone; either
// way O(batch). With missingOK false an unknown (or duplicated) ID
// rejects the whole batch before any mutation, matching DeleteBatch;
// with missingOK true unknown IDs are skipped and the number of records
// actually removed is returned.
func (ix *Index) DeleteDelta(ids []uint64, missingOK bool) (int, error) {
	if !missingOK {
		seen := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			if !ix.deltaHas(id) {
				return 0, fmt.Errorf("%w: %d", ErrNotFound, id)
			}
			if seen[id] {
				return 0, fmt.Errorf("core: duplicate ID %d in batch", id)
			}
			seen[id] = true
		}
	}
	applied := 0
	for _, id := range ids {
		if !ix.deltaHas(id) {
			continue
		}
		d := ix.ensureDelta()
		if i, ok := d.byID[id]; ok {
			// Swap-remove from the delta; fix the moved record's slot.
			last := len(d.recs) - 1
			if i != last {
				d.recs[i] = d.recs[last]
				d.byID[d.recs[i].ID] = i
			}
			d.recs = d.recs[:last]
			delete(d.byID, id)
		} else {
			p := ix.posMap()[id]
			d.dead[id] = true
			d.deadPos[p] = true
		}
		applied++
	}
	ix.maybeDropDelta()
	return applied, nil
}

// UpdateDelta replaces the vector of an existing record through the
// delta buffer (delete + insert, as the paper prescribes, but without
// either cascade). O(1); atomic by construction.
func (ix *Index) UpdateDelta(id uint64, vector []float64) error {
	if len(vector) != ix.dim {
		return fmt.Errorf("core: update dimension %d, want %d", len(vector), ix.dim)
	}
	if !ix.deltaHas(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if _, err := ix.DeleteDelta([]uint64{id}, false); err != nil {
		return err
	}
	return ix.InsertDelta([]Record{{ID: id, Vector: vector}})
}

// CloneDelta returns a shallow clone for the serving layer's
// clone-apply-swap publish: the base arrays (points, IDs, layers,
// position maps, slabs) are shared by reference and only the O(delta)
// bookkeeping is copied, so publishing a mutation batch costs O(delta)
// instead of O(index). The clone — and, from then on, its origin —
// must never receive structural maintenance (the legacy mutators
// refuse, see mutable); apply mutations through
// InsertDelta/DeleteDelta/UpdateDelta and fold them back with
// CompactedClone.
func (ix *Index) CloneDelta() *Index {
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
	ix.shared = true
	if ix.delta != nil {
		cp.delta = ix.delta.clone()
	}
	return cp
}

// Compact folds the pending delta into the layered base using the
// batch cascades: tombstoned records leave via DeleteBatch, delta
// records join via InsertBatch, and both rebuild the slabs of the
// layers they re-peel. The merged record set (and therefore every
// query answer) is unchanged; only the layering is refreshed. Must run on a deep-owned
// index (see CompactedClone); on a cascade error the index may be left
// torn, so compact a disposable clone and discard it on failure.
func (ix *Index) Compact() error {
	if ix.cc != nil {
		// Hierarchical path (clustered.go): per-cluster re-peel, safe
		// even on a shared base — the fold replaces the base arrays
		// instead of cascading through them.
		return ix.compactClustered()
	}
	if ix.shared {
		return errSharedBase
	}
	if ix.delta == nil {
		return nil
	}
	d := ix.delta
	ix.delta = nil
	if len(d.dead) > 0 {
		deadIDs := make([]uint64, 0, len(d.dead))
		for id := range d.dead {
			deadIDs = append(deadIDs, id)
		}
		sort.Slice(deadIDs, func(i, j int) bool { return deadIDs[i] < deadIDs[j] })
		if err := ix.DeleteBatch(deadIDs); err != nil {
			return fmt.Errorf("core: compact delete: %w", err)
		}
	}
	if len(d.recs) > 0 {
		if err := ix.InsertBatch(d.recs); err != nil {
			return fmt.Errorf("core: compact insert: %w", err)
		}
	}
	return nil
}

// CompactedClone returns a deep clone with the delta folded into the
// layered base — the index a background compactor publishes, and the
// one a checkpoint persists (the on-disk layer format cannot represent
// a delta). The receiver is untouched.
func (ix *Index) CompactedClone() (*Index, error) {
	if ix.cc != nil && ix.delta != nil {
		// Hierarchical path: skip the O(n) deep Clone — the fold never
		// mutates the shared base arrays, it replaces them — so the
		// clone is O(delta) and the fold cost is bounded by the
		// affected clusters.
		cp := ix.cloneForFold()
		if err := cp.compactClustered(); err != nil {
			return nil, err
		}
		return cp, nil
	}
	cp := ix.Clone()
	if err := cp.Compact(); err != nil {
		return nil, err
	}
	return cp, nil
}

// rankDelta scores every delta record against weights and returns them
// in the index's total order (score descending, ID ascending) with
// Layer = -1: the merge stream NewSearcherChecked weaves into the base
// walk. The dot product accumulates over j in index order, exactly
// like the layer kernels, so merged scores are bit-identical to the
// ones a rebuilt index would compute.
func (ix *Index) rankDelta(weights []float64) []Result {
	d := ix.delta
	out := make([]Result, len(d.recs))
	for i, r := range d.recs {
		var s float64
		for j, wj := range weights {
			s += wj * r.Vector[j]
		}
		out[i] = Result{ID: r.ID, Score: s, Layer: -1}
	}
	sort.Slice(out, func(a, b int) bool {
		return topk.ResultGreater(out[a].Score, out[a].ID, out[b].Score, out[b].ID)
	})
	return out
}
