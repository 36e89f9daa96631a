package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

// TestSourceTopNMatchesIndexTopN: the LayerSource walk behind the
// on-disk index honours Index.TopN's contract at the edges — n <= 0
// returns nothing and reads no layer, an n beyond the record count
// returns every record without a preallocation sized by n, and
// non-finite or wrong-dimension weights fail with the same errors —
// and answers ordinary queries identically. *Index is the LayerSource.
func TestSourceTopNMatchesIndexTopN(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 300, 3, 21)
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
			want, _, wantErr := ix.TopN(tc.weights, tc.n)
			got, st, err := SourceTopN(ix, tc.weights, tc.n)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("err = %v, want %v", err, wantErr)
			}
			if errors.Is(wantErr, ErrNonFiniteWeight) != errors.Is(err, ErrNonFiniteWeight) {
				t.Fatalf("err = %v does not wrap ErrNonFiniteWeight like %v", err, wantErr)
			}
			resultsBitIdentical(t, tc.name, got, want)
			if tc.n <= 0 && st != (Stats{}) {
				t.Fatalf("n=%d did work: %+v", tc.n, st)
			}
		})
	}
}
