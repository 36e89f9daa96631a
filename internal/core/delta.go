package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

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
// cost of applying a mutation batch is O(batch): the delta is
// persistent, so a CloneDelta shares it with its origin instead of
// copying it. A compaction (Compact/CompactedClone) folds the delta
// back into the layered base with the existing batch cascades when the
// buffer crosses a size threshold; the serving layer runs that in the
// background off the publish path.
//
// Ownership discipline: an index carrying a delta must only receive
// delta mutations (InsertDelta/DeleteDelta/UpdateDelta). The legacy
// cascading mutators refuse while a delta is pending, and they refuse
// on shallow clones (CloneDelta) outright, because those share the
// base arrays with their origin — the single-mutator serving loop
// relies on both guards.

// deltaState is one version of the pending unlayered mutations. The
// versions of a clone chain share everything a mutation leaves alone:
//
//   - Inserts append to a slot log — record IDs, and vectors in one
//     contiguous slab of dim floats per slot — whose backing arrays
//     the chain shares, each version seeing its own prefix. The tail
//     counter lets exactly one successor of a version append in place;
//     a sibling that finds the next slot claimed copies its prefix to
//     fresh arrays. Slots below a claim are never written again.
//   - Deleting a delta record marks its slot dead. Once dead slots
//     outnumber live ones the log is rewritten without them, so the
//     rewrite is paid for by the deletes that made it due.
//   - Dead slots and tombstoned base positions are copy-on-write
//     bitsets, and the live-ID lookup is a shared map plus a small
//     per-version overlay (idMap).
//
// A version that has a successor is frozen and never written again, so
// a published version needs no synchronisation beyond its publication.
// A mutable version writes in place only the copy-on-write parts
// stamped with its own token, own.
type deltaState struct {
	dim  int
	ids  []uint64      // slot -> record ID
	vecs []float64     // slot s holds vecs[s*dim : (s+1)*dim]
	tail *atomic.Int64 // slots claimed in the backing arrays of ids/vecs

	deadSlots cowBits // log slots whose record was deleted again
	deadBase  cowBits // tombstoned base positions
	byID      idMap   // live delta record ID -> slot
	live      int     // live slots
	tombs     int     // tombstoned base positions

	own    *byte       // this version's copy-on-write stamp
	frozen atomic.Bool // a successor shares this version
}

// reclaimMin is the dead-slot count below which the log is never
// rewritten: small rewrites would cost more than the slots they free.
const reclaimMin = 64

func newDeltaState(dim int) *deltaState {
	return &deltaState{dim: dim, own: new(byte)}
}

// successor returns a new version sharing everything with d, and
// freezes d. It only reads d's fields, so several goroutines may take
// successors of one published version at once.
func (d *deltaState) successor() *deltaState {
	d.frozen.Store(true)
	return &deltaState{
		dim: d.dim, ids: d.ids, vecs: d.vecs, tail: d.tail,
		deadSlots: d.deadSlots, deadBase: d.deadBase, byID: d.byID,
		live: d.live, tombs: d.tombs,
		own: new(byte),
	}
}

// vec returns slot s's vector, capped so an append by the caller cannot
// run into the next slot.
func (d *deltaState) vec(s int) []float64 {
	return d.vecs[s*d.dim : (s+1)*d.dim : (s+1)*d.dim]
}

// appendSlot stores one record after the version's log prefix and
// returns its slot.
func (d *deltaState) appendSlot(id uint64, vec []float64) int {
	n := len(d.ids)
	if n == cap(d.ids) || !d.tail.CompareAndSwap(int64(n), int64(n+1)) {
		// The arrays are full, or a sibling already claimed slot n:
		// continue on a private copy of this version's prefix.
		c := 2*n + 16
		ids := make([]uint64, n, c)
		copy(ids, d.ids)
		vecs := make([]float64, n*d.dim, c*d.dim)
		copy(vecs, d.vecs)
		d.ids, d.vecs, d.tail = ids, vecs, new(atomic.Int64)
		d.tail.Store(int64(n + 1))
	}
	d.ids = append(d.ids, id)
	d.vecs = append(d.vecs, vec...)
	return n
}

// maybeReclaim rewrites the log without its dead slots once they
// outnumber the live ones, so insert/delete churn that never reaches a
// fold keeps O(live) slots. Live records keep their relative order.
func (d *deltaState) maybeReclaim() {
	dead := len(d.ids) - d.live
	if dead < reclaimMin || dead <= d.live {
		return
	}
	c := 2*d.live + 16
	ids := make([]uint64, 0, c)
	vecs := make([]float64, 0, c*d.dim)
	byID := make(map[uint64]int32, d.live)
	for s, id := range d.ids {
		if !d.deadSlots.has(s) {
			byID[id] = int32(len(ids))
			ids = append(ids, id)
			vecs = append(vecs, d.vec(s)...)
		}
	}
	d.ids, d.vecs, d.tail = ids, vecs, new(atomic.Int64)
	d.tail.Store(int64(len(ids)))
	d.deadSlots = cowBits{}
	d.byID = idMap{base: byID, baseOwn: d.own}
}

// appendLive appends the live delta records to out in slot order,
// which is the order of their (last) insertion.
func (d *deltaState) appendLive(out []Record) []Record {
	for s, id := range d.ids {
		if !d.deadSlots.has(s) {
			out = append(out, Record{ID: id, Vector: d.vec(s)})
		}
	}
	return out
}

// tombIDs returns the IDs of the tombstoned base positions, ascending.
func (d *deltaState) tombIDs(baseIDs []uint64) []uint64 {
	out := make([]uint64, 0, d.tombs)
	d.deadBase.each(func(p int) { out = append(out, baseIDs[p]) })
	slices.Sort(out)
	return out
}

// cowBits is a copy-on-write bitset of 4096-bit chunks behind a pointer
// slice. Versions share chunks; a version copies a chunk, and the
// pointer slice, the first time it sets a bit in one it does not own.
type cowBits struct {
	chunks []*bitChunk
	own    *byte // owner of the chunks slice
}

type bitChunk struct {
	own   *byte
	words [chunkBits / 64]uint64
}

const chunkBits = 4096

func (b *cowBits) has(i int) bool {
	c := i / chunkBits
	if c >= len(b.chunks) || b.chunks[c] == nil {
		return false
	}
	return b.chunks[c].words[i%chunkBits/64]&(1<<(i%64)) != 0
}

func (b *cowBits) set(i int, own *byte) {
	c := i / chunkBits
	if b.own != own {
		chunks := make([]*bitChunk, max(len(b.chunks), c+1))
		copy(chunks, b.chunks)
		b.chunks, b.own = chunks, own
	} else if c >= len(b.chunks) {
		b.chunks = append(b.chunks, make([]*bitChunk, c+1-len(b.chunks))...)
	}
	ch := b.chunks[c]
	if ch == nil || ch.own != own {
		cp := &bitChunk{own: own}
		if ch != nil {
			cp.words = ch.words
		}
		b.chunks[c], ch = cp, cp
	}
	ch.words[i%chunkBits/64] |= 1 << (i % 64)
}

// each calls fn for every set bit, ascending.
func (b *cowBits) each(fn func(i int)) {
	for c, ch := range b.chunks {
		if ch == nil {
			continue
		}
		for w, word := range ch.words {
			for ; word != 0; word &= word - 1 {
				fn(c*chunkBits + w*64 + bits.TrailingZeros64(word))
			}
		}
	}
}

// idMap maps live delta record IDs to log slots persistently: a base
// map that versions share, plus the version's own overlay (slot -1
// hides a base entry). A version copies the overlay on its first
// write, so a publish copies at most overlayMax entries; the overlay
// is folded into a fresh base map once it outgrows that, so the fold's
// O(delta) copy comes once per overlayMax writes. The version that
// built the base map writes it in place until a successor shares it,
// so a long run of writes on one version — a WAL replay, a fold's
// journal — folds at most once.
type idMap struct {
	base       map[uint64]int32
	overlay    map[uint64]int32
	baseOwn    *byte // the version that built base; the overlay is empty then
	overlayOwn *byte
}

const overlayMax = 128

func (m *idMap) get(id uint64) (int, bool) {
	if s, ok := m.overlay[id]; ok {
		return int(s), s >= 0
	}
	s, ok := m.base[id]
	return int(s), ok
}

// put maps id to slot, or hides it with slot -1.
func (m *idMap) put(id uint64, slot int, own *byte) {
	if m.baseOwn == own {
		if slot < 0 {
			delete(m.base, id)
		} else {
			m.base[id] = int32(slot)
		}
		return
	}
	if m.overlayOwn != own {
		ov := make(map[uint64]int32, len(m.overlay)+1)
		for k, v := range m.overlay {
			ov[k] = v
		}
		m.overlay, m.overlayOwn = ov, own
	}
	m.overlay[id] = int32(slot)
	if len(m.overlay) <= overlayMax {
		return
	}
	base := make(map[uint64]int32, len(m.base)+len(m.overlay))
	for k, v := range m.base {
		base[k] = v
	}
	for k, v := range m.overlay {
		if v < 0 {
			delete(base, k)
		} else {
			base[k] = v
		}
	}
	*m = idMap{base: base, baseOwn: own}
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
	return ix.delta.live + ix.delta.tombs
}

// mutDelta returns a delta version this index may write: created on
// first use, and replaced by its own successor when a clone shares it.
func (ix *Index) mutDelta() *deltaState {
	switch {
	case ix.delta == nil:
		ix.delta = newDeltaState(ix.dim)
	case ix.delta.frozen.Load():
		ix.delta = ix.delta.successor()
	}
	return ix.delta
}

// maybeDropDelta restores the no-delta invariant once the buffer
// empties (e.g. a delta insert deleted again before compaction).
func (ix *Index) maybeDropDelta() {
	d := ix.delta
	if d != nil && d.live == 0 && d.tombs == 0 {
		ix.delta = nil
	}
}

// tombstones returns the tombstoned base positions, or nil when there
// are none (the common case the query hot path branches on once per
// layer).
func (ix *Index) tombstones() *cowBits {
	if ix.delta == nil || ix.delta.tombs == 0 {
		return nil
	}
	return &ix.delta.deadBase
}

// deltaSlot returns the log slot of a live delta record.
func (ix *Index) deltaSlot(id uint64) (int, bool) {
	if ix.delta == nil {
		return 0, false
	}
	return ix.delta.byID.get(id)
}

// basePos returns the position of a live base record: present in the
// layers and not tombstoned.
func (ix *Index) basePos(id uint64) (int, bool) {
	p, ok := ix.posMap()[id]
	if !ok {
		return 0, false
	}
	if dead := ix.tombstones(); dead != nil && dead.has(p) {
		return 0, false
	}
	return p, true
}

// deltaHas reports whether id currently resolves to a live record,
// looking through the delta: a delta insert wins, a tombstone hides
// the base copy.
func (ix *Index) deltaHas(id uint64) bool {
	if _, ok := ix.deltaSlot(id); ok {
		return true
	}
	_, ok := ix.basePos(id)
	return ok
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
	if len(recs) == 0 {
		return nil
	}
	d := ix.mutDelta()
	for _, r := range recs {
		d.byID.put(r.ID, d.appendSlot(r.ID, r.Vector), d.own)
		d.live++
	}
	return nil
}

// DeleteDelta removes records through the delta buffer: a delta-resident
// ID's slot dies, a base-resident ID gains a tombstone; either way
// O(batch). With missingOK false an unknown (or duplicated) ID rejects
// the whole batch before any mutation, matching DeleteBatch; with
// missingOK true unknown IDs are skipped and the number of records
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
		if s, ok := ix.deltaSlot(id); ok {
			d := ix.mutDelta()
			d.deadSlots.set(s, d.own)
			d.byID.put(id, -1, d.own)
			d.live--
		} else if p, ok := ix.basePos(id); ok {
			d := ix.mutDelta()
			d.deadBase.set(p, d.own)
			d.tombs++
		} else {
			continue
		}
		applied++
	}
	if applied > 0 {
		ix.delta.maybeReclaim()
		ix.maybeDropDelta()
	}
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
// position maps, slabs) are shared by reference, and so is the
// persistent delta, so publishing a mutation batch costs O(batch)
// amortized instead of O(index) or O(delta). The clone — and, from
// then on, its origin — must never receive structural maintenance (the
// legacy mutators refuse, see mutable); apply mutations through
// InsertDelta/DeleteDelta/UpdateDelta and fold them back with
// CompactedClone.
func (ix *Index) CloneDelta() *Index {
	cp := ix.cloneForFold()
	ix.shared = true
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
	if d.tombs > 0 {
		if err := ix.DeleteBatch(d.tombIDs(ix.ids)); err != nil {
			return fmt.Errorf("core: compact delete: %w", err)
		}
	}
	if d.live > 0 {
		if err := ix.InsertBatch(d.appendLive(make([]Record, 0, d.live))); err != nil {
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
		// clone is O(batch) and the fold cost is bounded by the
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

// rankDelta returns the live delta records a search bounded by limit
// can deliver, in the index's total order (score descending, ID
// ascending) with Layer = -1: the merge stream NewSearcherChecked weaves
// into the base walk. limit <= 0 ranks the whole delta. Every live
// record is scored, through the layer kernel, so scores are
// bit-identical to the ones a rebuilt index would compute; but only the
// records at or above the limit-th best score are collected and sorted,
// so a bounded query allocates O(limit) whatever the delta's size.
func (ix *Index) rankDelta(weights []float64, limit int) []Result {
	d := ix.delta
	if limit <= 0 || limit > d.live {
		limit = d.live
	}
	floor := math.Inf(-1)
	if limit < d.live {
		floor = d.cut(weights, limit)
	}
	out := d.appendScored(make([]Result, 0, limit), weights, floor)
	slices.SortFunc(out, cmpResult)
	return out[:min(limit, len(out))]
}

// cut returns the limit-th best score of the live records, or −Inf when
// fewer than limit records have a score the collector keeps (a NaN
// never enters it). The collector ranks slots, not record IDs, so the
// records it keeps may differ from the answer at ties with that score,
// but the score itself is exact.
func (d *deltaState) cut(weights []float64, limit int) float64 {
	best := topk.NewBounded(limit)
	var buf [deltaChunk]float64
	for lo := 0; lo < len(d.ids); lo += deltaChunk {
		for i, sc := range d.scoreChunk(buf[:], weights, lo) {
			if !d.deadSlots.has(lo + i) {
				best.Offer(topk.Item{ID: lo + i, Score: sc})
			}
		}
	}
	if cut, ok := best.Threshold(); ok {
		return cut
	}
	return math.Inf(-1)
}

// deltaChunk is the number of slots scored per kernel call: the score
// scratch is an array of that many floats on the caller's stack.
const deltaChunk = 256

// scoreChunk scores the slots [lo, lo+len(buf)) clipped to the log into
// buf, through the layer kernel, and returns the filled prefix.
func (d *deltaState) scoreChunk(buf, weights []float64, lo int) []float64 {
	n := min(len(buf), len(d.ids)-lo)
	scoreSlabRange(buf, d.vecs[lo*d.dim:(lo+n)*d.dim], weights, 0, n)
	return buf[:n]
}

// appendScored appends every live record scoring at or above floor to
// out, in slot order, with Layer = -1.
func (d *deltaState) appendScored(out []Result, weights []float64, floor float64) []Result {
	var buf [deltaChunk]float64
	for lo := 0; lo < len(d.ids); lo += deltaChunk {
		for i, sc := range d.scoreChunk(buf[:], weights, lo) {
			if sc >= floor && !d.deadSlots.has(lo+i) {
				out = append(out, Result{ID: d.ids[lo+i], Score: sc, Layer: -1})
			}
		}
	}
	return out
}

// cmpResult orders results by the total order: score descending, ID
// ascending.
func cmpResult(a, b Result) int {
	switch {
	case topk.ResultGreater(a.Score, a.ID, b.Score, b.ID):
		return -1
	case topk.ResultGreater(b.Score, b.ID, a.Score, a.ID):
		return 1
	}
	return 0
}
