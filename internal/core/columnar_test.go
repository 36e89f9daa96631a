package core

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

// roundTripColumnar exports and re-imports an index through the
// columnar seam — the in-memory equivalent of a checkpoint-v2 cycle.
func roundTripColumnar(t testing.TB, ix *Index, opt Options) *Index {
	t.Helper()
	cols, err := ix.ExportColumnar()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromColumnar(ix.Dim(), cols, ix.PositionOrderedIDs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// layerTally is a SlabSource that counts the layers a walk enters.
type layerTally struct{ n int }

func (c *layerTally) BeginLayer(int) { c.n++ }

// TestSourceTopNMatchesIndexTopN: an index served through the columnar
// seam with a SlabSource attached — the path the on-disk index takes —
// honours Index.TopN's contract at the edges: n <= 0 returns nothing
// and enters no layer, an n beyond the record count returns every
// record, and non-finite or wrong-dimension weights fail with the same
// errors before any layer is entered — and answers ordinary queries
// identically, announcing to the source exactly the layers it scores.
func TestSourceTopNMatchesIndexTopN(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 300, 3, 21)
	src := roundTripColumnar(t, ix, Options{})
	var tally layerTally
	src.SetSlabSource(&tally)
	w := []float64{0.4, -0.2, 0.9}
	for _, tc := range []struct {
		name    string
		weights []float64
		n       int
	}{
		{"top-10", w, 10},
		{"zero", w, 0},
		{"negative", w, -1},
		{"beyond len", w, 1000},
		{"huge", w, math.MaxInt},
		{"nan", []float64{math.NaN(), 0, 0}, 5},
		{"inf", []float64{0, math.Inf(-1), 0}, 5},
		{"short", []float64{1, 2}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tally.n = 0
			want, wantSt, wantErr := ix.TopN(tc.weights, tc.n)
			got, st, err := src.TopN(tc.weights, tc.n)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("err = %v, want %v", err, wantErr)
			}
			if errors.Is(wantErr, ErrNonFiniteWeight) != errors.Is(err, ErrNonFiniteWeight) {
				t.Fatalf("err = %v does not wrap ErrNonFiniteWeight like %v", err, wantErr)
			}
			resultsBitIdentical(t, tc.name, got, want)
			if st != wantSt {
				t.Fatalf("stats %+v, want %+v", st, wantSt)
			}
			if err == nil && tc.n >= ix.Len() && len(got) != ix.Len() {
				t.Fatalf("n=%d returned %d of %d records", tc.n, len(got), ix.Len())
			}
			if tally.n != st.LayersAccessed {
				t.Fatalf("source saw %d layers, walk accessed %d", tally.n, st.LayersAccessed)
			}
			if (tc.n <= 0 || err != nil) && (st != (Stats{}) || tally.n != 0) {
				t.Fatalf("n=%d did work: %+v, %d layers entered", tc.n, st, tally.n)
			}
		})
	}
}

func buildShells(t testing.TB, n, d int, seed int64) *Index {
	t.Helper()
	ix, err := Build(mkRecords(workload.Points(workload.Gaussian, n, d, seed)), Options{Seed: seed, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestColumnarRoundTripBitIdentity(t *testing.T) {
	for _, shells := range []bool{false, true} {
		var ix *Index
		if shells {
			ix = buildShells(t, 400, 3, 1)
		} else {
			ix = buildRand(t, workload.Gaussian, 400, 3, 1)
		}
		got := roundTripColumnar(t, ix, Options{Seed: 1})
		if got.Fingerprint() != ix.Fingerprint() {
			t.Fatalf("shells=%v: fingerprint changed", shells)
		}
		if got.ContentFingerprint() != ix.ContentFingerprint() {
			t.Fatalf("shells=%v: content fingerprint changed", shells)
		}
		for _, w := range workload.QueryWeights(10, 3, 7) {
			want, ws, err := ix.TopN(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			have, hs, err := got.TopN(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, have) || ws != hs {
				t.Fatalf("shells=%v: results/stats diverge", shells)
			}
		}
	}
}

// TestColumnarDeferredAccessors drives every API that needs the
// deferred per-record state (position map, vector views, layer
// attribution) on a freshly imported index.
func TestColumnarDeferredAccessors(t *testing.T) {
	ix := buildShells(t, 300, 3, 3)
	got := roundTripColumnar(t, ix, Options{Seed: 3})

	if got.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), ix.Len())
	}
	for _, id := range []uint64{1, 7, 150, 300} {
		wv, wok := ix.Vector(id)
		gv, gok := got.Vector(id)
		if wok != gok || !reflect.DeepEqual(wv, gv) {
			t.Fatalf("Vector(%d) diverges", id)
		}
		wl, wok := ix.LayerOf(id)
		gl, gok := got.LayerOf(id)
		if wok != gok || wl != gl {
			t.Fatalf("LayerOf(%d) = %d/%v, want %d/%v", id, gl, gok, wl, wok)
		}
	}
	if _, ok := got.Vector(9999); ok {
		t.Fatal("Vector of a nonexistent ID reported ok")
	}
	for k := 0; k < ix.NumLayers(); k++ {
		if !reflect.DeepEqual(sortedLayer(ix.Layer(k)), sortedLayer(got.Layer(k))) {
			t.Fatalf("Layer(%d) diverges", k)
		}
	}
	if len(got.Records()) != len(ix.Records()) {
		t.Fatal("Records() length diverges")
	}
}

func sortedLayer(recs []Record) map[uint64][]float64 {
	m := make(map[uint64][]float64, len(recs))
	for _, r := range recs {
		m[r.ID] = r.Vector
	}
	return m
}

// TestColumnarConcurrentReaders hammers a shared deferred index from
// many goroutines so the race detector can see the lazy
// materializations (posMap, recViews) racing queries.
func TestColumnarConcurrentReaders(t *testing.T) {
	ix := buildShells(t, 500, 3, 5)
	got := roundTripColumnar(t, ix, Options{Seed: 5})
	weights := workload.QueryWeights(8, 3, 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := weights[(g+i)%len(weights)]
				if _, _, err := got.TopN(w, 10); err != nil {
					t.Error(err)
					return
				}
				if _, ok := got.Vector(uint64(g*20 + i + 1)); !ok {
					t.Errorf("Vector(%d) missing", g*20+i+1)
					return
				}
				if _, ok := got.LayerOf(uint64(i + 1)); !ok {
					t.Errorf("LayerOf(%d) missing", i+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestColumnarMutationMaterializes verifies structural maintenance on
// a deferred index: the first mutator owns fresh record views and the
// index stays equivalent to the never-exported original under the same
// mutations.
func TestColumnarMutationMaterializes(t *testing.T) {
	ix := buildShells(t, 250, 3, 7)
	got := roundTripColumnar(t, ix, Options{Seed: 7})

	mutate := func(target *Index) {
		t.Helper()
		fresh := mkRecords(workload.Points(workload.Gaussian, 9, 3, 101))
		for i := range fresh {
			fresh[i].ID += 1000
		}
		if err := target.InsertBatch(fresh); err != nil {
			t.Fatal(err)
		}
		if err := target.DeleteBatch([]uint64{4, 100, 249}); err != nil {
			t.Fatal(err)
		}
		if err := target.Insert(Record{ID: 2000, Vector: []float64{0.1, -0.2, 0.3}}); err != nil {
			t.Fatal(err)
		}
		if err := target.Delete(2000); err != nil {
			t.Fatal(err)
		}
		if err := target.Update(10, []float64{1.5, -1.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(ix)
	mutate(got)
	if got.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("mutated deferred index diverged from the original")
	}
	if got.Fingerprint() != ix.Fingerprint() {
		t.Fatal("mutated deferred index layered differently")
	}
}

func TestColumnarClone(t *testing.T) {
	ix := buildShells(t, 200, 3, 9)
	got := roundTripColumnar(t, ix, Options{Seed: 9})

	cp := got.Clone()
	w := []float64{0.3, -1, 2}
	want, _, err := got.TopN(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	have, _, err := cp.TopN(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, have) {
		t.Fatal("clone of a deferred index answers differently")
	}

	// A single-axis query — the paper's §2 degenerate case — answers
	// through the same walk on the original and the deferred index.
	axis := []float64{0, 1, 0}
	ws, _, err := ix.TopN(axis, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := cp.TopN(axis, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Fatal("single-axis query diverges on a clone of a deferred index")
	}
}

func TestFromColumnarValidation(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 60, 3, 15)
	cols, err := ix.ExportColumnar()
	if err != nil {
		t.Fatal(err)
	}
	ids := ix.PositionOrderedIDs()

	if _, err := FromColumnar(0, cols, ids, Options{}); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := FromColumnar(3, cols, ids[:len(ids)-1], Options{}); err == nil {
		t.Error("short ids accepted")
	}
	if _, err := FromColumnar(3, nil, ids, Options{}); err == nil {
		t.Error("ids without layers accepted")
	}

	// A plain index exports every layer's positions as the identity.
	for k := range cols {
		if cols[k].Pos != nil {
			t.Fatalf("layer %d of a plain index exported explicit positions", k+1)
		}
	}
	// corrupt spells the identity positions out, so the position checks
	// have something to corrupt, then applies mutate.
	corrupt := func(mutate func(c []ColumnarLayer)) error {
		cp := make([]ColumnarLayer, len(cols))
		copy(cp, cols)
		base := 0
		for k := range cp {
			n := len(cols[k].Data) / 3
			cp[k].Pos = make([]int, n)
			for j := range cp[k].Pos {
				cp[k].Pos[j] = base + j
			}
			base += n
			cp[k].Data = append([]float64(nil), cols[k].Data...)
		}
		mutate(cp)
		_, err := FromColumnar(3, cp, ids, Options{})
		return err
	}
	if err := corrupt(func([]ColumnarLayer) {}); err != nil {
		t.Fatalf("explicit identity positions rejected: %v", err)
	}
	if err := corrupt(func(c []ColumnarLayer) { c[0].Pos[0] = c[0].Pos[1] }); err == nil {
		t.Error("duplicate position accepted")
	}
	if err := corrupt(func(c []ColumnarLayer) { c[0].Pos[0] = len(ids) + 5 }); err == nil {
		t.Error("out-of-range position accepted")
	}
	if err := corrupt(func(c []ColumnarLayer) { c[0].Data = c[0].Data[:len(c[0].Data)-3] }); err == nil {
		t.Error("short data slab accepted")
	}
	if err := corrupt(func(c []ColumnarLayer) { c[0].AxMin = c[0].AxMin[:1] }); err == nil {
		t.Error("wrong-dimension bound box accepted")
	}
	if len(cols) > 1 {
		if err := corrupt(func(c []ColumnarLayer) { c[1].Shell = &ShellTableExport{} }); err == nil {
			t.Error("partial shell coverage accepted")
		}
	}
}

func TestExportColumnarRequiresCompactedDelta(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 50, 3, 19)
	if err := ix.InsertDelta([]Record{{ID: 900, Vector: []float64{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ExportColumnar(); err == nil {
		t.Fatal("export succeeded with a pending delta")
	}
}
