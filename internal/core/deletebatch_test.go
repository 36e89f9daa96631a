package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestDeleteBatchBasic(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 400, 2, 71)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the entire outermost layer plus some random inner records.
	var ids []uint64
	for _, r := range ix.Layer(0) {
		ids = append(ids, r.ID)
	}
	ids = append(ids, ix.Layer(3)[0].ID, ix.Layer(5)[0].ID)
	if err := ix.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	want := 400 - len(ids)
	checkLayerInvariant(t, ix, want)
	checkQueriesMatchOracle(t, ix)
	for _, id := range ids {
		if _, ok := ix.LayerOf(id); ok {
			t.Fatalf("record %d still present", id)
		}
	}
}

func TestDeleteBatchErrors(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 0}, {0, 1}, {0.2, 0.2}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := ix.DeleteBatch([]uint64{99}); err == nil {
		t.Error("unknown ID accepted")
	}
	if err := ix.DeleteBatch([]uint64{1, 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
	// Failed batches must not mutate.
	checkLayerInvariant(t, ix, 4)
}

func TestDeleteBatchEverything(t *testing.T) {
	pts := workload.Points(workload.Uniform, 100, 2, 72)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, r := range ix.Records() {
		ids = append(ids, r.ID)
	}
	if err := ix.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.NumLayers() != 0 {
		t.Fatalf("len=%d layers=%d after deleting all", ix.Len(), ix.NumLayers())
	}
}

// TestDeleteBatchExposure reproduces the subtle case that breaks naive
// strip-and-reattach implementations: deleting a deep-layer vertex can
// expose points of the next layer, so the cascade must keep peeling
// past an emptied carry at a victim layer.
func TestDeleteBatchExposure(t *testing.T) {
	// Construct nested squares: layer k is a square of radius 10-k.
	var recs []Record
	id := uint64(1)
	for k := 0; k < 6; k++ {
		r := float64(10 - k)
		for _, c := range [][2]float64{{r, 0}, {-r, 0}, {0, r}, {0, -r}} {
			recs = append(recs, Record{ID: id, Vector: []float64{c[0], c[1]}})
			id++
		}
	}
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != 6 {
		t.Fatalf("nested squares produced %d layers", ix.NumLayers())
	}
	// Victims: the (+r,0) corner of layers 3 and 4 — the layers below
	// lose cover in the +x direction and must be promoted.
	var victims []uint64
	for _, k := range []int{2, 3} {
		for _, r := range ix.Layer(k) {
			v, _ := ix.Vector(r.ID)
			if v[0] > 0 && v[1] == 0 {
				victims = append(victims, r.ID)
			}
		}
	}
	if len(victims) != 2 {
		t.Fatalf("victim selection found %d", len(victims))
	}
	if err := ix.DeleteBatch(victims); err != nil {
		t.Fatal(err)
	}
	checkLayerInvariant(t, ix, len(recs)-2)
	checkQueriesMatchOracle(t, ix)
}

func TestDeleteBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := workload.Points(workload.Gaussian, 250, 3, 74)
	a, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for len(ids) < 40 {
		id := uint64(rng.Intn(250) + 1)
		dup := false
		for _, x := range ids {
			if x == id {
				dup = true
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	if err := a.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Same record sets; query answers must agree exactly.
	checkLayerInvariant(t, a, 210)
	checkLayerInvariant(t, b, 210)
	for trial := 0; trial < 10; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ra, _, err := a.TopN(w, 15)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.TopN(w, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i].Score != rb[i].Score {
				t.Fatalf("trial %d rank %d: batch %v sequential %v", trial, i, ra[i].Score, rb[i].Score)
			}
		}
	}
	checkFingerprintMatchesBuild(t, a)
	checkFingerprintMatchesBuild(t, b)

	// Single deletes at every depth, and one batch holding a record of
	// every depth applied both at once and one by one, in 2D–4D: each
	// layering must equal a fresh Build of the survivors.
	for dim := 2; dim <= 4; dim++ {
		base, err := Build(mkRecords(workload.Points(workload.Gaussian, 300, dim, int64(75+dim))), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var batch []uint64
		for k := 0; k < base.NumLayers(); k++ {
			layer := base.Layer(k)
			id := layer[rng.Intn(len(layer))].ID
			batch = append(batch, id)
			ix := base.Clone()
			if err := ix.Delete(id); err != nil {
				t.Fatalf("%dD layer %d: %v", dim, k, err)
			}
			checkSlabInvariant(t, ix)
			checkFingerprintMatchesBuild(t, ix)
		}
		one, seq := base.Clone(), base.Clone()
		if err := one.DeleteBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, id := range batch {
			if err := seq.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range []*Index{one, seq} {
			checkSlabInvariant(t, ix)
			checkFingerprintMatchesBuild(t, ix)
		}
	}
}

// TestDeleteExposingNothingBuildsOneHull pins the cost of the
// cascade's early stop: removing a vertex of the outer of six nested
// regular octagons exposes nothing inside, so the delete builds one
// hull (the outer layer without the vertex) and reattaches every
// deeper layer with the slab it had. A batch that also removes a
// vertex of layer 3 builds one more hull there, and the untouched
// layers between and below keep their slabs too.
func TestDeleteExposingNothingBuildsOneHull(t *testing.T) {
	// Each octagon is 0.6 times the size of the last and turned a little;
	// removing a vertex cuts a chord at cos(π/4) ≈ 0.71 of the radius.
	var recs []Record
	for k := 0; k < 6; k++ {
		r := math.Pow(0.6, float64(k))
		for j := 0; j < 8; j++ {
			a := 2*math.Pi*float64(j)/8 + 0.1*float64(k)
			recs = append(recs, Record{ID: uint64(len(recs) + 1), Vector: []float64{r * math.Cos(a), r * math.Sin(a)}})
		}
	}
	base, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumLayers() != 6 {
		t.Fatalf("nested octagons peeled into %d layers", base.NumLayers())
	}
	for _, victims := range [][]int{{0}, {0, 3}} {
		ix := base.Clone()
		slabs := append([]layerSlab(nil), ix.slabs...)
		var ids []uint64
		for _, k := range victims {
			ids = append(ids, ix.Layer(k)[0].ID)
		}
		calls := hullCalls(func() {
			if err := ix.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
		})
		if len(calls) != len(victims) {
			t.Errorf("deleting from layers %v built %d hulls, want %d", victims, len(calls), len(victims))
		}
		for k := 0; k < 6; k++ {
			want := 8
			if slices.Contains(victims, k) {
				want = 7
			}
			if ix.LayerSize(k) != want {
				t.Fatalf("layer sizes %v after deleting from layers %v", ix.LayerSizes(), victims)
			}
			if rebuilt := &ix.slabs[k].data[0] != &slabs[k].data[0]; rebuilt != (want == 7) {
				t.Errorf("deleting from layers %v: layer %d rebuilt = %v", victims, k, rebuilt)
			}
		}
		checkSlabInvariant(t, ix)
		checkFingerprintMatchesBuild(t, ix)
	}
}
