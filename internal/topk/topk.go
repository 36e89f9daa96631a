// Package topk provides bounded top-k selection and an unbounded
// max-heap keyed by float64 scores, the two in-memory structures the
// Onion query processor needs: a per-layer "best N of this layer" buffer
// and the candidate set of an unbounded (progressive) search.
//
// Both structures order items by one strict total order — descending
// score, equal scores by ascending ID — not by score alone. Score-only
// ordering would leave membership and pop order at exact ties dependent
// on insertion sequence, and the insertion sequence of the query walk
// depends on the query limit (each layer keeps min(remaining, |layer|)
// records). Under the total order a top-n result is always the first n
// entries of the same query's top-K result, which is what lets a cached
// top-K answer serve any smaller n ("prefix serving") bit-identically.
package topk

// Item is a scored record reference.
type Item struct {
	ID    int // caller-defined identifier (record index)
	Score float64
}

// Bounded keeps the k greatest items seen so far under the package's
// total order (descending score, ties by ascending ID), using a size-k
// min-heap whose root is the weakest kept item, evicted first. Because
// eviction follows the total order, the kept set is exactly the top k
// of everything offered — independent of offer order, and the top k of
// a Bounded with larger k is a superset.
// The zero value is unusable; call NewBounded.
type Bounded struct {
	k     int
	items []Item // min-heap on Score
}

// NewBounded returns a top-k collector. k must be positive.
func NewBounded(k int) *Bounded {
	if k <= 0 {
		panic("topk: NewBounded with non-positive k")
	}
	return &Bounded{k: k, items: make([]Item, 0, k)}
}

// Len returns the number of items currently kept (≤ k).
func (b *Bounded) Len() int { return len(b.items) }

// K returns the capacity.
func (b *Bounded) K() int { return b.k }

// Threshold returns the smallest kept score, or -Inf semantics via
// (0,false) when fewer than k items have been offered.
func (b *Bounded) Threshold() (float64, bool) {
	if len(b.items) < b.k {
		return 0, false
	}
	return b.items[0].Score, true
}

// Offer considers an item and reports whether it was kept. At capacity
// the root is evicted only when the new item is strictly greater under
// the total order, so an exact score tie is broken by ID rather than by
// arrival order.
func (b *Bounded) Offer(it Item) bool {
	if len(b.items) < b.k {
		b.items = append(b.items, it)
		b.siftUp(len(b.items) - 1)
		return true
	}
	if !itemLess(b.items[0], it) {
		return false
	}
	b.items[0] = it
	b.siftDown(0)
	return true
}

// Descending returns the kept items sorted by descending score,
// consuming the collector's internal order (the collector remains usable
// but unsorted invariants are restored).
func (b *Bounded) Descending() []Item {
	return b.DescendingInto(nil)
}

// DescendingInto is Descending with a caller-supplied destination: the
// kept items are appended to dst (usually dst[:0] of a reused buffer)
// and sorted by descending score, equal scores by ascending ID. It
// allocates nothing when dst has capacity, which is what keeps the warm
// columnar query path allocation-free (sort.Slice would cost two
// reflection allocations per call); the explicit tie-break makes the
// order a deterministic total order rather than whatever an unstable
// sort leaves behind. Heapsort: the minimum under (score asc, ID desc)
// repeatedly swaps to the shrinking tail, leaving the prefix in the
// advertised order.
func (b *Bounded) DescendingInto(dst []Item) []Item {
	dst = append(dst, b.items...)
	out := dst[len(dst)-len(b.items):]
	// The copy is already an itemLess min-heap (Offer maintains the full
	// total order); heapsort it directly.
	for i := len(out) - 1; i > 0; i-- {
		out[0], out[i] = out[i], out[0]
		siftDownItems(out[:i], 0)
	}
	return dst
}

// siftDownItems restores the itemLess min-heap property of items at i.
func siftDownItems(items []Item, i int) {
	n := len(items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && itemLess(items[l], items[m]) {
			m = l
		}
		if r < n && itemLess(items[r], items[m]) {
			m = r
		}
		if m == i {
			return
		}
		items[i], items[m] = items[m], items[i]
		i = m
	}
}

// itemLess is the inverse of the output order of DescendingInto: a
// sorts before b when its score is lower, or at equal scores when its
// ID is higher.
func itemLess(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Reset empties the collector, retaining capacity.
func (b *Bounded) Reset() { b.items = b.items[:0] }

// ResetK empties the collector and changes its bound to k, retaining
// the underlying capacity so a Searcher can reuse one collector across
// layers whose per-layer bounds differ. k must be positive.
func (b *Bounded) ResetK(k int) {
	if k <= 0 {
		panic("topk: ResetK with non-positive k")
	}
	b.k = k
	b.items = b.items[:0]
}

func (b *Bounded) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(b.items[i], b.items[p]) {
			return
		}
		b.items[p], b.items[i] = b.items[i], b.items[p]
		i = p
	}
}

func (b *Bounded) siftDown(i int) { siftDownItems(b.items, i) }

// Greater reports whether a ranks strictly before b: it is the pop
// order of MaxHeap and the output order of DescendingInto (descending
// score, equal scores by ascending ID).
func Greater(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// ResultGreater reports whether (scoreA, idA) ranks strictly before
// (scoreB, idB) under the package's total order — descending score,
// equal scores by ascending record ID. It is the same comparator the
// collectors above use, exported on raw fields so consumers keyed by
// application IDs (uint64, wider than Item.ID) — notably the
// cross-shard scatter-gather merge — order results by the exact rule
// the single-node query walk used to produce them.
func ResultGreater(scoreA float64, idA uint64, scoreB float64, idB uint64) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	return idA < idB
}

// MaxHeap is an unbounded max-heap of Items under the package's total
// order (descending score, ties by ascending ID). The Onion query
// processor uses it as the candidate set of an unbounded search:
// records from outer layers that may still beat records of inner layers
// (paper Section 3.2). A bounded search keeps a sorted run instead.
// Because Peek/Pop follow the total order, the pop sequence of a given
// item set never depends on the push sequence — the property that makes
// candidate draining identical across different query limits.
type MaxHeap struct {
	items []Item
}

// Len returns the number of items in the heap.
func (h *MaxHeap) Len() int { return len(h.items) }

// Push adds an item.
func (h *MaxHeap) Push(it Item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !Greater(h.items[i], h.items[p]) {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// Peek returns the maximum item without removing it. ok is false when
// the heap is empty.
func (h *MaxHeap) Peek() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// Pop removes and returns the maximum item.
func (h *MaxHeap) Pop() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	n := len(h.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && Greater(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && Greater(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top, true
}

// Reset empties the heap, retaining capacity.
func (h *MaxHeap) Reset() { h.items = h.items[:0] }
