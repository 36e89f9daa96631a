// Package topk provides bounded top-k selection and an unbounded
// max-heap keyed by float64 scores, the two in-memory structures the
// Onion query processor needs: a per-layer "best N of this layer"
// collector and the candidate set of an unbounded (progressive) search.
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

import (
	"math"
	"math/bits"
	"slices"
)

// Item is a scored record reference.
type Item struct {
	ID    int // caller-defined identifier (record index)
	Score float64
}

// Bounded keeps the k greatest items seen so far under the package's
// total order (descending score, ties by ascending ID). Offers go into
// an unordered buffer; when it is full, a selection cuts it to the k
// best and the k-th best score becomes a cut below which later offers
// are dropped with one compare. Selection is exact under the total
// order, so the kept set is exactly the top k of everything offered —
// independent of offer order, and the top k of a Bounded with larger k
// is a superset.
// The zero value is unusable (its K is 0); call NewBounded.
type Bounded struct {
	k     int
	cut   float64 // offers scoring strictly below are dropped
	items []Item  // unordered; a full buffer is cut to the k best
}

// NewBounded returns a top-k collector whose buffer holds 2k offers
// between cuts. k must be positive.
func NewBounded(k int) *Bounded { return NewBoundedCap(k, 2*k) }

// NewBoundedCap is NewBounded with a buffer of size offers. A collector
// that will never be offered more than k items (a search that keeps a
// whole layer) needs no room for a cut: size = k serves it.
func NewBoundedCap(k, size int) *Bounded {
	if k <= 0 {
		panic("topk: NewBounded with non-positive k")
	}
	return &Bounded{k: k, cut: math.Inf(-1), items: make([]Item, 0, size)}
}

// Len returns the number of items currently kept (≤ k).
func (b *Bounded) Len() int { return min(len(b.items), b.k) }

// K returns the bound k (0 for the zero value).
func (b *Bounded) K() int { return b.k }

// Threshold returns the k-th best kept score, or (0,false) when fewer
// than k items are kept. It cuts the buffer to the k best first, so a
// later offer below the returned score is dropped without buffering.
func (b *Bounded) Threshold() (float64, bool) {
	if len(b.items) < b.k {
		return 0, false
	}
	if len(b.items) > b.k || math.IsInf(b.cut, -1) {
		b.cutTo()
	}
	return b.cut, true
}

// Offer considers an item. One that scores strictly below the cut can
// never be among the k best and is dropped; any other is buffered, so
// an exact tie with the cut is broken by ID at the next cut rather than
// by arrival order. Offer stays small enough to inline into a caller's
// scoring loop; the cut itself runs out of line.
func (b *Bounded) Offer(it Item) {
	if it.Score >= b.cut {
		if len(b.items) == cap(b.items) {
			b.cutTo()
		}
		b.items = append(b.items, it)
	}
}

// cutTo cuts the buffer to its k best items under the total order and
// raises the cut to the k-th best score. With k or fewer items buffered
// nothing is dropped; at exactly k the cut becomes their minimum.
func (b *Bounded) cutTo() {
	if len(b.items) < b.k {
		return
	}
	selectNth(b.items, b.k-1)
	b.items = b.items[:b.k]
	b.cut = b.items[b.k-1].Score
}

// Descending returns the kept items sorted by descending score, equal
// scores by ascending ID. The slice is a view of the collector's own
// storage: it stays valid until the next Offer, Reset or ResetK, and
// the collector remains usable afterwards.
func (b *Bounded) Descending() []Item {
	if len(b.items) > b.k {
		b.cutTo()
	}
	sortItems(b.items)
	return b.items
}

// Reset empties the collector, retaining capacity.
func (b *Bounded) Reset() { b.ResetK(b.k) }

// ResetK empties the collector and changes its bound to k, retaining
// the buffer so a Searcher can reuse one collector across layers whose
// per-layer bounds differ. k must be positive.
func (b *Bounded) ResetK(k int) {
	if k <= 0 {
		panic("topk: ResetK with non-positive k")
	}
	b.k = k
	b.cut = math.Inf(-1)
	b.items = b.items[:0]
}

// The selection kernel: one partition step serves both the selection
// that cuts a Bounded buffer and the sort of its survivors, each an
// introspective quickselect/quicksort under Greater. A partition whose
// smaller side holds under an eighth of the range counts as bad; once a
// range has used up its budget of bits.Len(n) bad partitions, the
// stdlib's pattern-defeating sort finishes it, so the worst case stays
// O(n log n) whatever the input. Since IDs break every score tie, the
// order has no equal keys among distinct items: heavy ties and
// all-equal scores partition like distinct scores do.

// insertionMax is the range length at and below which both kernels
// finish with insertion sort.
const insertionMax = 12

// selectNth reorders a so that a[n] is the item of rank n under
// Greater, every item of a[:n] ranks before it and no item of a[n+1:]
// does.
func selectNth(a []Item, n int) {
	lo, hi := 0, len(a)
	budget := bits.Len(uint(hi))
	for hi-lo > insertionMax {
		p := lo + partition(a[lo:hi])
		if !balanced(p-lo, hi-lo) {
			if budget--; budget == 0 {
				fallbackSort(a[lo:hi])
				return
			}
		}
		switch {
		case n < p:
			hi = p
		case n > p:
			lo = p + 1
		default:
			return
		}
	}
	insertionSort(a[lo:hi])
}

// sortItems sorts a by Greater: descending score, ties by ascending ID.
func sortItems(a []Item) { quickSort(a, bits.Len(uint(len(a)))) }

func quickSort(a []Item, budget int) {
	for len(a) > insertionMax {
		p := partition(a)
		if !balanced(p, len(a)) {
			if budget--; budget == 0 {
				fallbackSort(a)
				return
			}
		}
		// Recurse into the smaller side and loop on the larger, which
		// bounds the stack depth by log2(len(a)).
		if p < len(a)-p {
			quickSort(a[:p], budget)
			a = a[p+1:]
		} else {
			quickSort(a[p+1:], budget)
			a = a[:p]
		}
	}
	insertionSort(a)
}

// balanced reports whether a pivot that lands at p in a range of n
// leaves at least n/8 items on its smaller side.
func balanced(p, n int) bool { return min(p, n-1-p) >= n/8 }

// partition moves a pivot (median of three, or Tukey's ninther on
// longer ranges) to its final index p and returns p: every item of
// a[:p] ranks before it under Greater, and no item of a[p+1:] does.
func partition(a []Item) int {
	n := len(a)
	m := n / 2
	if n >= 50 {
		s := n / 8
		median3(a, 0, s, 2*s)
		median3(a, m-s, m, m+s)
		median3(a, n-1-2*s, n-1-s, n-1)
		median3(a, s, m, n-1-s)
	} else {
		median3(a, 0, m, n-1)
	}
	a[0], a[m] = a[m], a[0]
	pivot := a[0]
	i, j := 1, n-1
	for {
		for i <= j && Greater(a[i], pivot) {
			i++
		}
		for i <= j && !Greater(a[j], pivot) {
			j--
		}
		if i > j {
			break
		}
		a[i], a[j] = a[j], a[i]
		i++
		j--
	}
	a[0], a[j] = a[j], a[0]
	return j
}

// median3 orders a[i], a[j], a[k] so that a[j] is their median under
// Greater.
func median3(a []Item, i, j, k int) {
	if Greater(a[j], a[i]) {
		a[i], a[j] = a[j], a[i]
	}
	if Greater(a[k], a[j]) {
		a[j], a[k] = a[k], a[j]
		if Greater(a[j], a[i]) {
			a[i], a[j] = a[j], a[i]
		}
	}
}

func insertionSort(a []Item) {
	for i := 1; i < len(a); i++ {
		it := a[i]
		j := i
		for ; j > 0 && Greater(it, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = it
	}
}

// fallbackSort sorts a range the quick kernels partitioned badly too
// often, with the stdlib's pdqsort (heapsort in its own worst case).
func fallbackSort(a []Item) {
	slices.SortFunc(a, func(x, y Item) int {
		switch {
		case Greater(x, y):
			return -1
		case Greater(y, x):
			return 1
		}
		return 0
	})
}

// Greater reports whether a ranks strictly before b: it is the pop
// order of MaxHeap and the output order of Bounded.Descending
// (descending score, equal scores by ascending ID).
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
