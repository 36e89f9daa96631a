package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// fullDeltaRank is the whole live delta in the total order with Layer
// -1: the merge stream a search ranks when it can deliver every delta
// record, built here by the brute-force oracle.
func fullDeltaRank(ix *Index, w []float64) []Result {
	out := bruteRank(ix.delta.appendLive(nil), w)
	for i := range out {
		out[i].Layer = -1
	}
	return out
}

// checkDeltaLimits checks TopN(w, n) for every n from 1 to the live
// delta size + 2 against the brute-force ranking and the unbounded
// stream, in IDs and score bits, and against a searcher that merges the
// whole sorted delta: results, layers and every Stats field must match
// it, so the selection changes neither an answer nor the accounted work.
func checkDeltaLimits(t *testing.T, ix *Index, w []float64) {
	t.Helper()
	brute := bruteRank(ix.Records(), w)
	stream := drainSearcher(t, ix, w, 0, nil)
	sameRanking(t, "unbounded stream vs brute", stream, brute)
	whole := fullDeltaRank(ix, w)
	for n := 1; n <= ix.delta.live+2; n++ {
		ctx := fmt.Sprintf("w=%v n=%d", w, n)
		got, st, err := ix.TopN(w, n)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, ctx+": TopN vs brute", got, brute[:min(n, len(brute))])
		sameRanking(t, ctx+": TopN vs stream", got, stream[:min(n, len(stream))])

		ref, err := ix.NewSearcherChecked(w, n)
		if err != nil {
			t.Fatal(err)
		}
		ref.deltaRank = whole
		var want []Result
		for r, ok := ref.Next(); ok; r, ok = ref.Next() {
			want = append(want, r)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, whole-delta merge %d", ctx, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d: %+v, whole-delta merge %+v", ctx, i, got[i], want[i])
			}
		}
		if st != ref.Stats() {
			t.Fatalf("%s: stats %+v, whole-delta merge %+v", ctx, st, ref.Stats())
		}
	}
}

// TestDeltaTiesAcrossCut puts exact ties among delta records only (a
// Gaussian base is tie-free) and checks every limit across them. The
// delta holds groups of identical vectors inserted in descending ID
// order, so slot order is the reverse of ID order and a selection that
// broke ties by slot returns the wrong records at a group that
// straddles the limit-th rank. In the high-ID case the top group spans
// 2^63, so a selection that cast record IDs to int would order it
// wrongly. Before the last groups arrive, deleting fillers makes the log
// rewrite itself (maybeReclaim), and a few deletes afterwards leave dead
// slots among the ties.
func TestDeltaTiesAcrossCut(t *testing.T) {
	for dim := 2; dim <= 4; dim++ {
		for _, high := range []bool{false, true} {
			t.Run(fmt.Sprintf("dim%d/high=%v", dim, high), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(700 + dim)))
				ix, err := Build(mkRecords(workload.Points(workload.Gaussian, 200, dim, int64(dim))), Options{})
				if err != nil {
					t.Fatal(err)
				}
				next := uint64(1_000_000)
				if high {
					next = 1<<63 + 1 // the top group spans 2^63
				}
				group := func(size int, vec []float64) {
					for i := 0; i < size; i++ {
						if err := ix.InsertDelta([]Record{{ID: next, Vector: vec}}); err != nil {
							t.Fatal(err)
						}
						next--
					}
				}
				// A top group, then groups of quantized vectors: positive
				// weights rank them above the base, mixed ones interleave.
				top := make([]float64, dim)
				for j := range top {
					top[j] = 8
				}
				group(4, top)
				randGroups := func(count int) {
					for g := 0; g < count; g++ {
						vec := make([]float64, dim)
						for j := range vec {
							vec[j] = float64(rng.Intn(7)) - 1
						}
						group(2+rng.Intn(4), vec)
					}
				}
				randGroups(6)
				fillers := make([]uint64, 0, 80)
				for i := 0; i < 80; i++ {
					vec := make([]float64, dim)
					for j := range vec {
						vec[j] = rng.NormFloat64()
					}
					id := uint64(500_000 + i)
					if err := ix.InsertDelta([]Record{{ID: id, Vector: vec}}); err != nil {
						t.Fatal(err)
					}
					fillers = append(fillers, id)
				}
				if _, err := ix.DeleteDelta(fillers, false); err != nil {
					t.Fatal(err)
				}
				if d := ix.delta; len(d.ids) != d.live {
					t.Fatalf("log not rewritten: %d slots for %d live records", len(d.ids), d.live)
				}
				randGroups(8)
				recs := ix.delta.appendLive(nil)
				var gone []uint64
				for i := 0; i < 5; i++ {
					gone = append(gone, recs[rng.Intn(len(recs))].ID)
				}
				if _, err := ix.DeleteDelta(gone, true); err != nil {
					t.Fatal(err)
				}
				if d := ix.delta; len(d.ids) == d.live {
					t.Fatal("no dead slots left among the ties")
				}

				positive := make([]float64, dim)
				mixed := make([]float64, dim)
				for j := range positive {
					positive[j] = 0.5 + rng.Float64()
					mixed[j] = rng.NormFloat64()
				}
				checkDeltaLimits(t, ix, positive)
				checkDeltaLimits(t, ix, mixed)
			})
		}
	}
}

// deltaBench builds a 10k×3D Gaussian base with a Gaussian delta of the
// given size, memoized per size so the benchmark's sub-benchmarks and
// the allocation test share one build.
var deltaBench struct {
	sync.Mutex
	byDelta map[int]*Index
}

func deltaBenchIndex(tb testing.TB, delta int) *Index {
	tb.Helper()
	deltaBench.Lock()
	defer deltaBench.Unlock()
	if ix := deltaBench.byDelta[delta]; ix != nil {
		return ix
	}
	ix, err := Build(mkRecords(workload.Points(workload.Gaussian, 10_000, 3, 2024)), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if delta > 0 {
		if err := ix.InsertDelta(mkRecordsFrom(workload.Points(workload.Gaussian, delta, 3, 2025), 100_001)); err != nil {
			tb.Fatal(err)
		}
	}
	if deltaBench.byDelta == nil {
		deltaBench.byDelta = map[int]*Index{}
	}
	deltaBench.byDelta[delta] = ix
	return ix
}

// TestTopNDeltaAllocBound pins the per-query allocation of a bounded
// search over a large delta to O(limit): a top-10 over 4,096 pending
// records must not allocate a buffer sized to the delta (its 4,096
// results alone would be 96 KiB).
func TestTopNDeltaAllocBound(t *testing.T) {
	ix := deltaBenchIndex(t, 4096)
	w := []float64{0.3, -0.5, 0.8}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.TopN(w, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 8<<10 {
		t.Fatalf("TopN(w, 10) over a 4096-record delta allocates %d B/op, want < 8 KiB", got)
	}
}

// BenchmarkTopNDelta times bounded queries over a 10k×3D Gaussian base
// with a pending Gaussian delta of 0, 2,048 and 4,096 records.
func BenchmarkTopNDelta(b *testing.B) {
	ws := workload.QueryWeights(64, 3, 31)
	for _, delta := range []int{0, 2048, 4096} {
		for _, n := range []int{10, 100} {
			b.Run(fmt.Sprintf("delta=%d/top=%d", delta, n), func(b *testing.B) {
				ix := deltaBenchIndex(b, delta)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.TopN(ws[i%len(ws)], n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fuzzDeltaBase returns a small tie-free Gaussian base per dimension,
// built once: the fuzz bytes shape only the delta.
var fuzzDeltaBases [5]struct {
	once sync.Once
	recs []Record
	ix   *Index
}

func fuzzDeltaBase(t *testing.T, dim int) (*Index, []Record) {
	fb := &fuzzDeltaBases[dim]
	fb.once.Do(func() {
		fb.recs = mkRecords(workload.Points(workload.Gaussian, 60, dim, int64(dim)))
		fb.ix, _ = Build(fb.recs, Options{})
	})
	if fb.ix == nil {
		t.Fatal("base build failed")
	}
	return fb.ix, fb.recs
}

// FuzzDeltaRankMatchesSort decodes bytes into a small delta over a fixed
// Gaussian base: quantized vectors, so exact ties are common, IDs in a
// shuffled order that may span 2^63, deletes of delta and base records,
// a quantized weight vector and a limit. TopN and the unbounded stream
// must match the brute-force ranking in IDs and score bits.
func FuzzDeltaRankMatchesSort(f *testing.F) {
	f.Add([]byte{1, 3, 2, 1, 0, 9, 1, 1, 1, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 1, 255, 4, 4, 42, 3, 0, 3, 0, 3, 0, 3, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{2, 7, 128, 255, 1, 2, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		dim := 2 + int(data[0])%3
		limit := 1 + int(data[1])%16
		flags := data[2]
		seed := int64(binary.LittleEndian.Uint16(data[3:5]))
		w := make([]float64, dim)
		zero := true
		for j := range w {
			nib := data[5+j/2] >> (4 * (j % 2)) & 15
			w[j] = float64(int(nib) - 8) // -8..7
			zero = zero && w[j] == 0
		}
		if zero {
			w[0] = 1 // all-zero weights would tie the whole base
		}
		body := data[8:]
		n := min(len(body)/dim, 96)
		if n == 0 {
			return
		}
		base, baseRecs := fuzzDeltaBase(t, dim)
		ix := base.Clone()
		ids := rand.New(rand.NewSource(seed)).Perm(n)
		first := uint64(1_000)
		if flags&1 != 0 {
			first = 1<<63 - uint64(n/2)
		}
		recs := make([]Record, n)
		for i := range recs {
			vec := make([]float64, dim)
			for j := range vec {
				vec[j] = float64(body[i*dim+j]%4) - 1.5
			}
			recs[i] = Record{ID: first + uint64(ids[i]), Vector: vec}
		}
		if flags&2 != 0 {
			for _, r := range recs {
				if err := ix.InsertDelta([]Record{r}); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := ix.InsertDelta(recs); err != nil {
			t.Fatal(err)
		}
		// Delete every record whose first byte has its top bit set, and a
		// base record per flag bit 2.
		var gone []uint64
		for i, r := range recs {
			if body[i*dim]&0x80 != 0 {
				gone = append(gone, r.ID)
			}
		}
		if flags&4 != 0 {
			gone = append(gone, baseRecs[int(seed)%len(baseRecs)].ID)
		}
		if _, err := ix.DeleteDelta(gone, false); err != nil {
			t.Fatal(err)
		}

		brute := bruteRank(ix.Records(), w)
		got, _, err := ix.TopN(w, limit)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "TopN vs brute", got, brute[:min(limit, len(brute))])
		sameRanking(t, "unbounded stream vs brute", drainSearcher(t, ix, w, 0, nil), brute)
	})
}

// TestDeltaRankNaNScores: scores that overflow to +Inf and −Inf in one
// sum are NaN, which no collector keeps. A bounded search over such a
// delta returns what remains, in order, instead of failing.
func TestDeltaRankNaNScores(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Gaussian, 50, 2, 5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := math.MaxFloat64
	err = ix.InsertDelta([]Record{
		{ID: 100, Vector: []float64{big, -big}},
		{ID: 101, Vector: []float64{big, -big}},
		{ID: 102, Vector: []float64{3, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.rankDelta([]float64{2, 2}, 2)
	if len(got) != 1 || got[0].ID != 102 {
		t.Fatalf("rankDelta over NaN scores = %+v, want only record 102", got)
	}
}
