package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a: 10..50 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only 90..100 lies inside root
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "a2", Start: 20, End: 25, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 30 - 10, 20, 30, 5, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestAddTreeRebasesParents(t *testing.T) {
	l := newSpanLog()
	l.add(span{Name: "x", Parent: -1})
	l.addTree([]span{{Name: "r", Parent: -1}, {Name: "k", Parent: 0}})
	got := l.spans
	if got[1].Parent != -1 || got[2].Parent != 1 {
		t.Fatalf("parents = %d, %d; want -1, 1", got[1].Parent, got[2].Parent)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(clone(xs), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}
