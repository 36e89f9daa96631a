package main

import (
	"math"
	"testing"
)

// tieModel holds two records that score identically under w = (1, 0):
// the oracle must order them by ID.
func tieModel() (*model, []float64) {
	return newModel([]record{
		{ID: 7, Vec: []float64{2, 5}},
		{ID: 3, Vec: []float64{2, -1}},
		{ID: 9, Vec: []float64{1, 0}},
		{ID: 4, Vec: []float64{-3, 2}},
	}), []float64{1, 0}
}

func TestOracleOrdersTiesByID(t *testing.T) {
	m, w := tieModel()
	got := m.topN(w, 3)
	want := []ranked{{3, 2}, {7, 2}, {9, 1}}
	if err := checkRanking(got, want); err != nil {
		t.Fatal(err)
	}
	if err := checkRanking(m.topN(w, 0), append(want, ranked{4, -3})); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsSwappedTie(t *testing.T) {
	m, w := tieModel()
	got := m.topN(w, 3)
	got[0], got[1] = got[1], got[0]
	if checkRanking(got, m.topN(w, 3)) == nil {
		t.Fatal("swapped tie order accepted")
	}
}

func TestOracleRejectsDroppedInsert(t *testing.T) {
	m, w := tieModel()
	before := m.topN(w, 0)
	m.apply(mutation{ID: 11, Vec: []float64{0.5, 0}})
	if checkRanking(before, m.topN(w, 0)) == nil {
		t.Fatal("ranking without the acked insert accepted")
	}
}

func TestOracleRejectsResurrectedDelete(t *testing.T) {
	m, w := tieModel()
	before := m.topN(w, 0)
	m.apply(mutation{ID: 9})
	if checkRanking(before, m.topN(w, 0)) == nil {
		t.Fatal("ranking with the acked delete still present accepted")
	}
}

func TestOracleRejectsScoreBits(t *testing.T) {
	m, w := tieModel()
	got := m.topN(w, 2)
	got[1].Score = math.Nextafter(got[1].Score, 0)
	if checkRanking(got, m.topN(w, 2)) == nil {
		t.Fatal("score off by one ulp accepted")
	}
}

// The bounded selection must agree with the full sort for every n.
func TestOracleTopNMatchesFullSort(t *testing.T) {
	recs := genCorpus(5, distGaussian, 500, 3)
	m := newModel(recs)
	for _, w := range genWeights(5, 99, 8, 3) {
		all := m.topN(w, 0)
		for _, n := range []int{1, 10, 100, 499} {
			if err := checkRanking(m.topN(w, n), all[:n]); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// The score is the index's sequential accumulation from zero, so a
// negative zero product still sums to +0 like the server's loop.
func TestScoreAccumulatesFromZero(t *testing.T) {
	if s := score([]float64{1}, []float64{math.Copysign(0, -1)}); math.Signbit(s) {
		t.Fatalf("score = %v, want +0", s)
	}
}
