package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// inputs renders everything a seed generates for every workload.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	for _, dist := range []string{distGaussian, distUniform} {
		corpus := genCorpus(seed, dist, 2000, 3)
		b.Write(encodeCorpus(corpus))
		enc, _ := json.Marshal(struct {
			M, C []mutation
			W    [][]float64
			Z    []int
		}{
			M: genMutations(seed, corpus, 300),
			C: genChurn(seed, corpus, 3, 50),
			W: genWeights(seed, streamFresh, 100, 3),
			Z: func() []int {
				z := newZipf(newRNG(seed, streamZipfMeasure), 1.1, 4096)
				out := make([]int, 1000)
				for i := range out {
					out[i] = z.next()
				}
				return out
			}(),
		})
		b.Write(enc)
	}
	return b.Bytes()
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := inputs(42), inputs(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	if bytes.Equal(a, inputs(43)) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	recs := genCorpus(3, distUniform, 100, 3)
	got, err := decodeCorpus(encodeCorpus(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCorpus(got), encodeCorpus(recs)) {
		t.Fatal("corpus changed through encode/decode")
	}
	if _, err := decodeCorpus(encodeCorpus(recs)[:50]); err == nil {
		t.Fatal("truncated corpus accepted")
	}
}

// Every durable mutation must grow the delta buffer by one: inserts
// take fresh IDs, deletes take distinct corpus IDs.
func TestMutationsAreFreshInsertsAndDistinctDeletes(t *testing.T) {
	corpus := genCorpus(9, distGaussian, 1000, 3)
	seen := map[uint64]bool{}
	ins, del := 0, 0
	for _, mu := range genMutations(9, corpus, 3000) {
		if seen[mu.ID] {
			t.Fatalf("id %d used twice", mu.ID)
		}
		seen[mu.ID] = true
		if mu.Vec != nil {
			ins++
			if mu.ID <= uint64(len(corpus)) {
				t.Fatalf("insert reuses corpus id %d", mu.ID)
			}
		} else {
			del++
			if mu.ID > uint64(len(corpus)) {
				t.Fatalf("delete of non-corpus id %d", mu.ID)
			}
		}
	}
	if r := float64(ins) / float64(del); r < 1.7 || r > 2.3 {
		t.Fatalf("insert:delete = %d:%d, want about 2:1", ins, del)
	}
}

// The churn tail leaves exactly its last block's inserts and deletes
// behind, and every delete targets a live record.
func TestChurnNetEffect(t *testing.T) {
	corpus := genCorpus(4, distGaussian, 1000, 3)
	m := newModel(corpus)
	for _, mu := range genChurn(4, corpus, 4, 64) {
		if mu.Vec == nil {
			if _, ok := m.live[mu.ID]; !ok {
				t.Fatalf("delete of absent id %d", mu.ID)
			}
		}
		m.apply(mu)
	}
	if len(m.live) != len(corpus) {
		t.Fatalf("live = %d, want %d", len(m.live), len(corpus))
	}
	fresh := 0
	for id := range m.live {
		if id > uint64(len(corpus)) {
			fresh++
		}
	}
	if fresh != 64 {
		t.Fatalf("%d fresh records remain, want 64", fresh)
	}
}
