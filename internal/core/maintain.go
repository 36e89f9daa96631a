package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hull"
)

// Maintenance (paper Section 3.4). Insertion and deletion cascade
// through the layered hull: adding a point outside layer k's hull can
// expel existing vertices of layer k inwards; removing a vertex of layer
// k can promote vertices of layer k+1 outwards. Both follow the paper's
// pseudocode: repeatedly merge the carried set with the next layer,
// recompute the hull, keep its vertices, and carry the rest deeper.
//
// As the paper notes, maintenance is far more expensive than querying
// (each step is a hull construction); batch maintenance is advisable in
// practice and is provided by InsertBatch and DeleteBatch, of which
// Insert and Delete are the one-record cases.

// computeHull is the hull constructor used by construction and every
// maintenance cascade. A package variable so tests can inject hull
// failures and exercise the rollback paths; production code never
// reassigns it.
var computeHull = hull.Compute

// hullOpts are the hull options every core computation shares.
func (ix *Index) hullOpts() hull.Options {
	return hull.Options{Tol: ix.tol, Seed: ix.seed, Workers: ix.workers}
}

// ErrDuplicateID is returned by Insert when the ID already exists.
var ErrDuplicateID = errors.New("core: duplicate record ID")

// ErrNotFound is returned by Delete/Update for an unknown ID.
var ErrNotFound = errors.New("core: record not found")

// Insert adds one record (InsertBatch of one).
func (ix *Index) Insert(rec Record) error {
	return ix.InsertBatch([]Record{rec})
}

// InsertBatch adds records with one cascade. The outermost layer a new
// record enters is found by one binary search for the whole batch:
// layer hulls nest, so "every new record lies inside layer k's hull"
// holds for exactly the layers above that one. Each probe builds one
// layer hull and tests the records against it until one falls outside,
// so locating costs ⌈log₂(L+1)⌉ hulls however large the batch, and the
// cascade dominates. The cascade starts at that layer carrying every
// new record; one that belongs deeper rides the carry until it becomes
// a hull vertex. Validation precedes any mutation; a cascade error can
// leave the index torn.
func (ix *Index) InsertBatch(recs []Record) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if len(r.Vector) != ix.dim {
			return fmt.Errorf("core: insert dimension %d, want %d", len(r.Vector), ix.dim)
		}
		// Check against the index AND the batch itself: two records
		// sharing an ID within one batch would otherwise both alloc, and
		// the posOf overwrite would leave an undeletable ghost.
		if _, dup := ix.posOf[r.ID]; dup || seen[r.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
		}
		seen[r.ID] = true
	}
	if len(recs) == 0 {
		return nil
	}
	lo, hi := 0, len(ix.layers) // invariant: hulls 0..lo-1 contain every record
	for lo < hi {
		mid := (lo + hi) / 2
		h, err := computeHull(ix.pts, ix.layers[mid], ix.hullOpts())
		if err != nil {
			return fmt.Errorf("core: hull of layer %d: %w", mid, err)
		}
		inside := true
		for _, r := range recs {
			if !h.Contains(r.Vector) {
				inside = false
				break
			}
		}
		if inside {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	carry := make([]int, len(recs))
	for i, r := range recs {
		carry[i] = ix.alloc(r)
	}
	return ix.cascade(lo, carry, nil)
}

// Delete removes one record (DeleteBatch of one).
func (ix *Index) Delete(id uint64) error {
	return ix.DeleteBatch([]uint64{id})
}

// DeleteBatch removes several records with one cascade from the
// outermost affected layer — the batch maintenance the paper recommends
// over per-record cascades. Unknown or repeated IDs fail the whole
// batch before any mutation.
func (ix *Index) DeleteBatch(ids []uint64) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	gone := make(map[int]bool, len(ids))
	minK := len(ix.layers)
	for _, id := range ids {
		pos, ok := ix.posOf[id]
		if !ok {
			return fmt.Errorf("%w: %d", ErrNotFound, id)
		}
		if gone[pos] {
			return fmt.Errorf("core: duplicate ID %d in batch", id)
		}
		gone[pos] = true
		minK = min(minK, ix.layerOf[pos])
	}
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		ix.unalloc(id, ix.posOf[id])
	}
	return ix.cascade(minK, nil, gone)
}

// Update replaces the vector of an existing record (delete + insert, as
// the paper prescribes). Update is atomic: either the record ends up
// with the new vector and a consistent layering, or — when a hull
// cascade of the delete or reinsert fails — the index is restored to
// its exact pre-update state and the error returned. Without the
// restore a failed reinsert would silently lose the record (and a
// cascade failure leaves the layer list truncated mid-repair), so the
// rollback works from a snapshot taken up front rather than trying to
// re-insert into a possibly-torn index.
func (ix *Index) Update(id uint64, vector []float64) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	if len(vector) != ix.dim {
		return fmt.Errorf("core: update dimension %d, want %d", len(vector), ix.dim)
	}
	if _, ok := ix.posOf[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	// Clone is O(n) positions (attribute vectors are shared), which the
	// two hull cascades below dominate.
	backup := ix.Clone()
	err := ix.Delete(id)
	if err == nil {
		err = ix.Insert(Record{ID: id, Vector: vector})
	}
	if err != nil {
		*ix = *backup
		return err
	}
	return nil
}

// alloc stores a record and returns its position. Any mutation
// detaches the hierarchical compactor (its per-cluster record sets no
// longer describe the base).
func (ix *Index) alloc(rec Record) int {
	ix.cc = nil
	vec := make([]float64, len(rec.Vector))
	copy(vec, rec.Vector)
	var pos int
	if n := len(ix.free); n > 0 {
		pos = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.pts[pos] = vec
		ix.ids[pos] = rec.ID
		ix.layerOf[pos] = -1
	} else {
		pos = len(ix.pts)
		ix.pts = append(ix.pts, vec)
		ix.ids = append(ix.ids, rec.ID)
		ix.layerOf = append(ix.layerOf, -1)
	}
	ix.posOf[rec.ID] = pos
	return pos
}

// unalloc releases the position of a deleted record.
func (ix *Index) unalloc(id uint64, pos int) {
	ix.cc = nil
	delete(ix.posOf, id)
	ix.pts[pos] = nil
	ix.layerOf[pos] = -1
	ix.free = append(ix.free, pos)
}

// cascade re-peels the layering from layer k inwards (paper Section
// 3.4). carry holds positions that must join at or below layer k (new
// records); gone holds removed positions the old layers still list.
// Each step pools the carry with the next old layer, emits the pool's
// hull vertices as a new layer and carries the rest deeper. A layer
// that lost a record may have exposed points of the layer below it, so
// the pool keeps absorbing layers until the last one absorbed is
// intact; the pool then holds every remaining point its hull could
// miss.
//
// The cascade re-peels no layer it can show unchanged. An old layer
// that lost no record encloses every record below it, so once nothing
// is carried it is the hull of all that remains: it reattaches as it
// was, slab and shell table included, and with no removed record left
// deeper so does the rest of the old layering. A step whose carry is
// exactly the intact layer it just absorbed — the emitted layer is what
// the step carried in and nothing crossed it — reaches that state too.
// So a deletion that exposes nothing costs one hull, not a re-peel of
// every deeper layer, and a cascade ends at the first unchanged layer
// below its last removal.
func (ix *Index) cascade(k int, carry []int, gone map[int]bool) error {
	rest := ix.cutLayers(k)
	left := len(gone) // removed positions in layers not yet absorbed
	i := 0
	for len(carry) > 0 || (left > 0 && i < len(rest)) {
		pool := carry
		intact := false
		for i < len(rest) && !intact {
			n := len(pool)
			for _, p := range rest[i].pos {
				if gone[p] {
					left--
				} else {
					pool = append(pool, p)
				}
			}
			intact = len(pool)-n == len(rest[i].pos)
			i++
		}
		if intact && len(pool) == len(rest[i-1].pos) {
			// Nothing but one intact layer: the hull of all that remains.
			ix.attachLayer(rest[i-1])
			carry = nil
			continue
		}
		if len(pool) == 0 {
			carry = nil // every absorbed layer was removed whole
			continue
		}
		h, err := computeHull(ix.pts, pool, ix.hullOpts())
		if err != nil {
			return fmt.Errorf("core: maintenance hull: %w", err)
		}
		if h.Joggled() {
			ix.joggled = true
		}
		ix.appendLayer(h.Vertices)
		inVerts := make(map[int]bool, len(h.Vertices))
		for _, v := range h.Vertices {
			inVerts[v] = true
		}
		next := make([]int, 0, len(pool)-len(h.Vertices))
		for _, p := range pool {
			if !inVerts[p] {
				next = append(next, p)
			}
		}
		carry = next
		// The pool ends with the intact layer in its order and next keeps
		// that order, so equal slices mean equal sets.
		if intact && slices.Equal(carry, rest[i-1].pos) {
			ix.attachLayer(rest[i-1])
			carry = nil
		}
	}
	for _, l := range rest[i:] {
		ix.attachLayer(l)
	}
	return nil
}
