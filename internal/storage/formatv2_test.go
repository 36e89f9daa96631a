package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// buildShellIndex builds a shell-mode index and scatters its internal
// positions with structural maintenance, so round-trip tests exercise
// the canonical-position remapping, not just the freshly built layout.
func buildShellIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: seed, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteBatch([]uint64{2, uint64(n / 2), uint64(n - 1)}); err != nil {
		t.Fatal(err)
	}
	extra := workload.Points(workload.Gaussian, 7, d, seed+1)
	add := make([]core.Record, len(extra))
	for i, p := range extra {
		add[i] = core.Record{ID: uint64(n + 1 + i), Vector: p}
	}
	if err := ix.InsertBatch(add); err != nil {
		t.Fatal(err)
	}
	return ix
}

func queryWeights(d int, seed int64) [][]float64 {
	return workload.QueryWeights(12, d, seed)
}

// assertSameAnswers drives both indexes through TopN, progressive
// Next, and TopNBatch and requires bit-identical results and stats at
// two worker counts.
func assertSameAnswers(t *testing.T, want, got *core.Index, d int, topn int) {
	t.Helper()
	weights := queryWeights(d, 99)
	for _, workers := range []int{1, 4} {
		want.SetParallelism(workers)
		got.SetParallelism(workers)
		for wi, w := range weights {
			wr, ws, err := want.TopN(w, topn)
			if err != nil {
				t.Fatal(err)
			}
			gr, gs, err := got.TopN(w, topn)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wr, gr) {
				t.Fatalf("workers=%d weights[%d]: results diverge\nwant %v\ngot  %v", workers, wi, wr, gr)
			}
			if ws != gs {
				t.Fatalf("workers=%d weights[%d]: stats diverge: want %+v got %+v", workers, wi, ws, gs)
			}
			ps := got.NewSearcher(w, topn)
			for i := 0; i < len(gr); i++ {
				r, ok := ps.Next()
				if !ok || r != gr[i] {
					t.Fatalf("progressive result %d = %v (ok=%v), want %v", i, r, ok, gr[i])
				}
			}
		}
		wb, _, err := want.TopNBatch(weights, topn)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := got.TopNBatch(weights, topn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wb, gb) {
			t.Fatalf("workers=%d: TopNBatch diverges", workers)
		}
	}
}

func TestV2RoundTripBitIdentity(t *testing.T) {
	ix := buildShellIndex(t, 600, 3, 11)
	buf, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)%PageSize != 0 {
		t.Fatalf("v2 file is %d bytes, not page aligned", len(buf))
	}
	if v, err := FormatVersion(buf); err != nil || v != 2 {
		t.Fatalf("FormatVersion = %d, %v; want 2", v, err)
	}
	got, aux, err := LoadV2Bytes(buf, core.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(aux) != 0 {
		t.Fatalf("unexpected aux blob of %d bytes", len(aux))
	}
	if got.Len() != ix.Len() || got.NumLayers() != ix.NumLayers() || got.Dim() != ix.Dim() {
		t.Fatalf("shape mismatch: len %d/%d layers %d/%d", got.Len(), ix.Len(), got.NumLayers(), ix.NumLayers())
	}
	if got.Fingerprint() != ix.Fingerprint() {
		t.Fatal("layer-partition fingerprint changed across the v2 round trip")
	}
	if got.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("content fingerprint changed across the v2 round trip")
	}
	assertSameAnswers(t, ix, got, 3, 10)
}

func TestV2RoundTripPlainIndex(t *testing.T) {
	// No shells: the format must round-trip the flag-off layout too.
	ix := buildIndex(t, 300, 4, 5)
	buf, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadV2Bytes(buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("content fingerprint changed across the v2 round trip")
	}
	assertSameAnswers(t, ix, got, 4, 5)
}

func TestV2RoundTripEmptyIndex(t *testing.T) {
	ix, err := core.Empty(3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadV2Bytes(buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumLayers() != 0 || got.Dim() != 3 {
		t.Fatalf("empty round trip: len=%d layers=%d dim=%d", got.Len(), got.NumLayers(), got.Dim())
	}
}

func TestV2AuxRoundTrip(t *testing.T) {
	ix := buildIndex(t, 120, 3, 3)
	aux := []byte("opaque compactor spec stand-in \x00\x01\x02")
	buf, err := MarshalV2(ix, aux)
	if err != nil {
		t.Fatal(err)
	}
	_, gotAux, err := LoadV2Bytes(buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAux, aux) {
		t.Fatalf("aux round trip: got %q want %q", gotAux, aux)
	}
}

func TestV2CorruptionDetection(t *testing.T) {
	ix := buildShellIndex(t, 200, 3, 7)
	buf, err := MarshalV2(ix, []byte("aux"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		_, _, err := LoadV2Bytes(b, core.Options{})
		return err
	}

	if err := load(buf[:4]); !errors.Is(err, ErrBadMagic) {
		t.Errorf("short prefix: got %v, want ErrBadMagic", err)
	}
	bad := append([]byte(nil), buf...)
	bad[7] = 3
	if err := load(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("unknown version byte: got %v, want ErrBadVersion", err)
	}
	v1, err := Marshal(ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(v1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v1 file through the v2 loader: got %v, want ErrBadVersion", err)
	}
	bad = append([]byte(nil), buf...)
	bad[v2HeaderBytes+3] ^= 0xff // inside the first layer entry
	if err := load(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped directory byte: got %v, want ErrCorrupt", err)
	}
	if err := load(buf[:len(buf)-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-page-aligned truncation: got %v, want ErrCorrupt", err)
	}
	dirPages := int(buf[v2OffDirPages]) // < 256 pages for this size
	if err := load(buf[:dirPages*PageSize]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated after directory: got %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), buf...)
	bad[len(bad)-PageSize+1] ^= 0xff // inside the aux extent (last pages)
	if err := load(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped aux byte: got %v, want ErrCorrupt", err)
	}
}

// layerCounter observes the walk's BeginLayer notifications — the
// extents an mmap serving mode would actually touch.
type layerCounter struct{ n int64 }

func (c *layerCounter) BeginLayer(int) { c.n++ }

// TestPredictedCostCoversExtentsTouched pins the Eq. 2 serving
// contract: the cost model's predicted page reads, accumulated from
// per-query stats, must upper-bound the layer extents a paged backing
// store would fault in (DefaultRandomWeight ≥ 1 page per accessed
// layer, and pruned layers never reach BeginLayer).
func TestPredictedCostCoversExtentsTouched(t *testing.T) {
	ix := buildShellIndex(t, 1500, 3, 13)
	buf, err := MarshalV2(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadV2Bytes(buf, core.Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var counter layerCounter
	got.SetSlabSource(&counter)
	var predicted float64
	for _, w := range workload.QueryWeights(40, 3, 77) {
		_, st, err := got.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		predicted += EstimateCost(st.LayersAccessed, st.RecordsEvaluated, 3)
	}
	if counter.n == 0 {
		t.Fatal("no layer accesses observed")
	}
	if predicted < float64(counter.n) {
		t.Fatalf("Eq. 2 predicted %.0f page reads < %d extents touched", predicted, counter.n)
	}
}

func FuzzCheckpointV2RoundTrip(f *testing.F) {
	plain := buildIndex(f, 60, 2, 1)
	if buf, err := MarshalV2(plain, nil); err == nil {
		f.Add(buf)
	}
	shell := buildShellIndex(f, 80, 3, 2)
	if buf, err := MarshalV2(shell, []byte("aux blob")); err == nil {
		f.Add(buf)
	}
	f.Add([]byte("ONIONIX\x02short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, aux, err := LoadV2Bytes(data, core.Options{})
		if err != nil {
			return // must not panic; errors are fine
		}
		// Whatever loaded must be a coherent index: it re-marshals and
		// the second generation answers queries without panicking.
		buf2, err := MarshalV2(ix, aux)
		if err != nil {
			t.Fatalf("loaded index does not re-marshal: %v", err)
		}
		ix2, _, err := LoadV2Bytes(buf2, core.Options{})
		if err != nil {
			t.Fatalf("re-marshaled index does not reload: %v", err)
		}
		if ix.Len() > 0 && ix.Len() < 1<<14 {
			w := make([]float64, ix.Dim())
			for j := range w {
				w[j] = 1
			}
			r1, _, err1 := ix.TopN(w, 3)
			r2, _, err2 := ix2.TopN(w, 3)
			if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(r1, r2)) {
				t.Fatalf("generations disagree: %v/%v vs %v/%v", r1, err1, r2, err2)
			}
		}
	})
}
