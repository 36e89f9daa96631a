package onion

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

func TestFacadeFilteredQueries(t *testing.T) {
	recs, pts := testRecords(workload.Uniform, 600, 2, 21)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, 0.5}

	// Predicate filter.
	res, stats, err := ix.TopNFiltered(w, 5, func(id uint64, _ []float64) bool { return id%3 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for i, p := range pts {
		if uint64(i+1)%3 == 0 {
			want = append(want, geom.Dot(w, p))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	if len(res) != 5 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.ID%3 != 0 {
			t.Errorf("rank %d violates predicate: id %d", i, r.ID)
		}
		if diff := r.Score - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("rank %d: %v want %v", i, r.Score, want[i])
		}
	}
	if stats.RecordsEvaluated == 0 {
		t.Error("stats missing")
	}

	// Range filter.
	rres, _, err := ix.TopNInRanges(w, 4, map[int][2]float64{1: {-0.25, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rres {
		v := recs[r.ID-1].Vector
		if v[1] < -0.25 || v[1] > 0.25 {
			t.Errorf("rank %d out of range: %v", i, v)
		}
	}
}

func TestFacadeDeleteBatch(t *testing.T) {
	recs, _ := testRecords(workload.Gaussian, 200, 2, 22)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteBatch([]uint64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 195 {
		t.Fatalf("len = %d", ix.Len())
	}
	if err := ix.DeleteBatch([]uint64{99999}); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestFacadeHierarchyPersistence(t *testing.T) {
	groups := map[string][]Record{
		"a": {{ID: 1, Vector: []float64{5, 0}}, {ID: 2, Vector: []float64{6, 1}}, {ID: 3, Vector: []float64{5, 2}}},
		"b": {{ID: 4, Vector: []float64{0, 5}}, {ID: 5, Vector: []float64{1, 6}}, {ID: 6, Vector: []float64{2, 5}}},
	}
	h, err := BuildHierarchy(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/h"
	if err := h.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHierarchy(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := h.TopN([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := back.TopN([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("rank %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	if _, err := LoadHierarchy(t.TempDir() + "/missing"); err == nil {
		t.Error("missing hierarchy loaded")
	}
}

func TestFacadeLoadRoundTrip(t *testing.T) {
	recs, _ := testRecords(workload.Gaussian, 300, 3, 23)
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.onion"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumLayers() != ix.NumLayers() || back.Len() != ix.Len() {
		t.Fatalf("shape: %d/%d vs %d/%d", back.NumLayers(), back.Len(), ix.NumLayers(), ix.Len())
	}
	// Loaded index is mutable.
	if err := back.Insert(Record{ID: 9999, Vector: []float64{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	top, err := back.TopN([]float64{1, 1, 1}, 1)
	if err != nil || top[0].ID != 9999 {
		t.Fatalf("top after insert: %v %v", top, err)
	}
	if _, err := Load(t.TempDir() + "/none.onion"); err == nil {
		t.Error("missing file loaded")
	}
}
