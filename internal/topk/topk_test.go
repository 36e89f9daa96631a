package topk

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundedBasic(t *testing.T) {
	b := NewBounded(3)
	for i, s := range []float64{5, 1, 9, 3, 7, 2} {
		b.Offer(Item{ID: i, Score: s})
	}
	got := b.Descending()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantScores := []float64{9, 7, 5}
	for i, it := range got {
		if it.Score != wantScores[i] {
			t.Errorf("rank %d: score %v, want %v", i, it.Score, wantScores[i])
		}
	}
	if th, ok := b.Threshold(); !ok || th != 5 {
		t.Errorf("threshold = %v,%v", th, ok)
	}
}

func TestBoundedUnderfill(t *testing.T) {
	b := NewBounded(10)
	b.Offer(Item{ID: 1, Score: 2})
	if _, ok := b.Threshold(); ok {
		t.Error("threshold should be undefined when underfilled")
	}
	got := b.Descending()
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("got %v", got)
	}
}

// TestBoundedRejectsWeak checks on the kept set that an offer weaker
// than every kept item stays out, and that one tying the threshold's
// score stays out when it loses the tie on ID, while a strong offer
// displaces the weakest kept item.
func TestBoundedRejectsWeak(t *testing.T) {
	b := NewBounded(2)
	b.Offer(Item{ID: 0, Score: 10})
	b.Offer(Item{ID: 1, Score: 20})
	kept := []Item{{ID: 1, Score: 20}, {ID: 0, Score: 10}}
	b.Offer(Item{ID: 2, Score: 5})
	if got := b.Descending(); !slices.Equal(got, kept) {
		t.Errorf("weak item was kept: %v", got)
	}
	b.Offer(Item{ID: 3, Score: 10})
	if got := b.Descending(); !slices.Equal(got, kept) {
		t.Errorf("tied-with-threshold item should be rejected (existing kept): %v", got)
	}
	b.Offer(Item{ID: 4, Score: 15})
	if got, want := b.Descending(), []Item{{ID: 1, Score: 20}, {ID: 4, Score: 15}}; !slices.Equal(got, want) {
		t.Errorf("strong item rejected: %v", got)
	}
}

func TestBoundedPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

func TestBoundedReset(t *testing.T) {
	b := NewBounded(2)
	b.Offer(Item{ID: 0, Score: 1})
	b.Reset()
	if b.Len() != 0 {
		t.Error("reset did not empty")
	}
	b.Offer(Item{ID: 1, Score: 9})
	if got := b.Descending(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("after reset: %v", got)
	}
}

func TestBoundedMatchesSort(t *testing.T) {
	// Property: Bounded(k) over any sequence equals sort-descending[:k].
	f := func(scores []float64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		b := NewBounded(k)
		for i, s := range scores {
			b.Offer(Item{ID: i, Score: s})
		}
		want := append([]float64{}, scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > k {
			want = want[:k]
		}
		got := b.Descending()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Score != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	var h MaxHeap
	if _, ok := h.Peek(); ok {
		t.Error("peek on empty")
	}
	if _, ok := h.Pop(); ok {
		t.Error("pop on empty")
	}
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for i, s := range in {
		h.Push(Item{ID: i, Score: s})
	}
	if top, _ := h.Peek(); top.Score != 9 {
		t.Errorf("peek = %v", top.Score)
	}
	want := append([]float64{}, in...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, w := range want {
		it, ok := h.Pop()
		if !ok || it.Score != w {
			t.Fatalf("pop %d = %v,%v want %v", i, it.Score, ok, w)
		}
	}
	if h.Len() != 0 {
		t.Error("heap not drained")
	}
}

func TestMaxHeapProperty(t *testing.T) {
	f := func(scores []float64) bool {
		var h MaxHeap
		for i, s := range scores {
			h.Push(Item{ID: i, Score: s})
		}
		prev, first := 0.0, true
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			if !first && it.Score > prev {
				return false
			}
			prev, first = it.Score, false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBoundedTieOrderIndependent checks the total order at exact score
// ties: the kept set and its output order must not depend on the offer
// sequence, only on (score desc, ID asc). Prefix serving in the result
// cache relies on exactly this.
func TestBoundedTieOrderIndependent(t *testing.T) {
	items := []Item{
		{ID: 7, Score: 5}, {ID: 2, Score: 5}, {ID: 9, Score: 5},
		{ID: 4, Score: 5}, {ID: 1, Score: 8}, {ID: 3, Score: 2},
	}
	// Top-3 under the total order: (8,1), (5,2), (5,4).
	want := []Item{{ID: 1, Score: 8}, {ID: 2, Score: 5}, {ID: 4, Score: 5}}
	perm := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Item{}, items...)
		perm.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := NewBounded(3)
		for _, it := range shuffled {
			b.Offer(it)
		}
		got := b.Descending()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d = %+v, want %+v (input %v)", trial, i, got[i], want[i], shuffled)
			}
		}
	}
}

// TestBoundedPrefixProperty: for any offer sequence, Bounded(k)'s output
// is the first k entries of Bounded(k') for every k' > k. This is the
// limit-independence the query walk's per-layer keep needs so that a
// cached top-K can answer any n ≤ K.
func TestBoundedPrefixProperty(t *testing.T) {
	f := func(scoresRaw []uint8, kRaw uint8) bool {
		if len(scoresRaw) == 0 {
			return true
		}
		k := int(kRaw%8) + 1
		big := NewBounded(k + 5)
		small := NewBounded(k)
		for i, s := range scoresRaw {
			it := Item{ID: i, Score: float64(s % 8)} // coarse scores force ties
			big.Offer(it)
			small.Offer(it)
		}
		wide := big.Descending()
		narrow := small.Descending()
		for i := range narrow {
			if narrow[i] != wide[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(16))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMaxHeapTiePopOrder: pops at equal scores come out in ascending ID
// regardless of push order.
func TestMaxHeapTiePopOrder(t *testing.T) {
	perm := rand.New(rand.NewSource(7))
	items := []Item{{ID: 5, Score: 3}, {ID: 1, Score: 3}, {ID: 9, Score: 3}, {ID: 2, Score: 7}, {ID: 8, Score: 3}}
	want := []Item{{ID: 2, Score: 7}, {ID: 1, Score: 3}, {ID: 5, Score: 3}, {ID: 8, Score: 3}, {ID: 9, Score: 3}}
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Item{}, items...)
		perm.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var h MaxHeap
		for _, it := range shuffled {
			h.Push(it)
		}
		for i, w := range want {
			got, ok := h.Pop()
			if !ok || got != w {
				t.Fatalf("trial %d: pop %d = %+v,%v want %+v", trial, i, got, ok, w)
			}
		}
	}
}

func TestMaxHeapReset(t *testing.T) {
	var h MaxHeap
	h.Push(Item{Score: 1})
	h.Reset()
	if h.Len() != 0 {
		t.Error("reset failed")
	}
}

// fullSortTop is the reference the collector is checked against: the
// first k items of a full sort under Greater.
func fullSortTop(items []Item, k int) []Item {
	all := slices.Clone(items)
	sort.Slice(all, func(i, j int) bool { return Greater(all[i], all[j]) })
	return all[:min(k, len(all))]
}

// TestBoundedMatchesFullSort checks the collector against a full sort
// on input shapes that stress a selection: heavy ties (three distinct
// scores), sorted, reverse-sorted, organ-pipe and all-equal scores,
// under shuffled IDs, at k from 1 to more than offered. Threshold, Len
// and Descending are called mid-stream, and one collector is reused
// through ResetK across every case, its buffer sized for k = 1.
func TestBoundedMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []struct {
		name  string
		score func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.NormFloat64() }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reverse", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
		{"all-equal", func(int, int) float64 { return 1 }},
	}
	reused := NewBounded(1)
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 13, 200, 1500} {
			ids := rng.Perm(n)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{ID: ids[i], Score: sh.score(i, n)}
			}
			for _, k := range []int{1, 2, 7, 100, n + 3} {
				reused.ResetK(k)
				for _, b := range []*Bounded{NewBounded(k), reused} {
					name := fmt.Sprintf("%s/n=%d/k=%d", sh.name, n, k)
					checkBounded(t, name, b, items, k)
				}
			}
		}
	}
}

// checkBounded offers items to an empty collector of bound k, checking
// Len and Threshold at a few points and Descending once mid-stream,
// then the final kept set and order against fullSortTop.
func checkBounded(t *testing.T, name string, b *Bounded, items []Item, k int) {
	t.Helper()
	step := max(1, len(items)/7)
	for i, it := range items {
		b.Offer(it)
		if i%step != step-1 {
			continue
		}
		seen := items[:i+1]
		if got, want := b.Len(), min(len(seen), k); got != want {
			t.Fatalf("%s: after %d offers Len = %d, want %d", name, len(seen), got, want)
		}
		th, ok := b.Threshold()
		if len(seen) < k {
			if ok {
				t.Fatalf("%s: Threshold defined after %d < k offers", name, len(seen))
			}
		} else if want := fullSortTop(seen, k)[k-1].Score; !ok || th != want {
			t.Fatalf("%s: after %d offers Threshold = %v,%v, want %v", name, len(seen), th, ok, want)
		}
		if i/step == 3 {
			if got, want := b.Descending(), fullSortTop(seen, k); !slices.Equal(got, want) {
				t.Fatalf("%s: mid-stream Descending after %d offers = %v, want %v", name, len(seen), got, want)
			}
		}
	}
	if got, want := b.Descending(), fullSortTop(items, k); !slices.Equal(got, want) {
		t.Fatalf("%s: Descending = %v, want %v", name, got, want)
	}
}

// TestKernelsOnEqualItems drives the selection and the sort over
// inputs of fully equal items (same ID and score), which partition
// badly by construction, so the budgeted fallback must finish them.
func TestKernelsOnEqualItems(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 20, 500, 4000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: rng.Intn(3), Score: float64(rng.Intn(2))}
		}
		want := fullSortTop(items, n)
		got := slices.Clone(items)
		sortItems(got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortItems disagrees with a full sort", n)
		}
		for _, r := range []int{0, n / 3, n - 1} {
			if r < 0 || r >= n {
				continue
			}
			got := slices.Clone(items)
			selectNth(got, r)
			if got[r] != want[r] {
				t.Fatalf("n=%d: selectNth(%d) placed %v, want %v", n, r, got[r], want[r])
			}
			for i := range got {
				if (i < r && Greater(got[r], got[i])) || (i > r && Greater(got[i], got[r])) {
					t.Fatalf("n=%d: selectNth(%d) left %v at %d on the wrong side", n, r, got[i], i)
				}
			}
		}
	}
}

// FuzzBoundedMatchesSort offers items decoded from the fuzz bytes —
// score from the high bits (32 values, so ties abound), IDs a
// permutation — to a collector of bound k, asking for the threshold
// where a byte's low bits are all set, and checks the kept set and its
// order against a full sort.
func FuzzBoundedMatchesSort(f *testing.F) {
	f.Add([]byte{7, 7, 7, 7, 0, 255}, uint8(2))
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89, 97, 105}, uint8(5))
	f.Add([]byte{200, 150, 100, 50, 0, 50, 100, 150, 200}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := int(kRaw)%64 + 1
		ids := rand.New(rand.NewSource(int64(len(data)))).Perm(len(data))
		b := NewBounded(k)
		items := make([]Item, 0, len(data))
		for i, c := range data {
			it := Item{ID: ids[i], Score: float64(c >> 3)}
			items = append(items, it)
			b.Offer(it)
			if c&7 == 7 {
				th, ok := b.Threshold()
				if len(items) < k {
					if ok {
						t.Fatalf("Threshold defined after %d < %d offers", len(items), k)
					}
				} else if want := fullSortTop(items, k)[k-1].Score; !ok || th != want {
					t.Fatalf("Threshold after %d offers = %v,%v, want %v", len(items), th, ok, want)
				}
			}
		}
		if got, want := b.Descending(), fullSortTop(items, k); !slices.Equal(got, want) {
			t.Fatalf("Descending = %v, want %v", got, want)
		}
	})
}
