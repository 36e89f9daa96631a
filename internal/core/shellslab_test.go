package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// bruteScoreSeq scores the logical record set by brute force (geom.Dot,
// the same attribute-order accumulation the kernels use) and returns the
// top-n score sequence in descending order. Tie order between IDs is
// irrelevant here: the sequence of score bits alone pins the walk.
func bruteScoreSeq(vecs [][]float64, w []float64, n int) []float64 {
	all := make([]float64, len(vecs))
	for i, v := range vecs {
		all[i] = geom.Dot(w, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// TestShellsMatchPlainAndBruteAfterMixedMaintenance is the shell-mode
// acceptance property: a shells-enabled index and a plain twin fed the
// identical mutation schedule return bit-identical top-N output — solo
// TopN and TopNBatch, workers 1 and 4 — through every
// lifecycle stage: fresh build, insert-only delta buffer (shells live
// over the base layers), tombstoned delta buffer (shells stand down but
// answers must not move), and post-compaction (tables rebuilt). The
// brute-force oracle over the logical record set pins both twins to the
// true answer. The suite runs under -race in scripts/ci.sh.
func TestShellsMatchPlainAndBruteAfterMixedMaintenance(t *testing.T) {
	defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
	scoreParallelMin = 64 // drive the parallel shell-run kernels on small layers

	for _, d := range []int{2, 3, 4} {
		n := 700 + 150*d
		pts := workload.Points(workload.Gaussian, n, d, int64(100+d))
		shellIx, err := Build(mkRecords(pts), Options{Seed: 3, Shells: true})
		if err != nil {
			t.Fatal(err)
		}
		plainIx, err := Build(mkRecords(pts), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !shellIx.ShellPruning() || shellIx.shellTabs == nil {
			t.Fatalf("%dD: Options.Shells did not materialize shell tables", d)
		}
		if plainIx.shellTabs != nil {
			t.Fatalf("%dD: plain build grew shell tables", d)
		}

		// The logical record set, mirrored through every mutation.
		vecs := append([][]float64(nil), pts...)
		rng := rand.New(rand.NewSource(int64(31 * d)))

		totalSkipped := 0
		check := func(stage string) {
			t.Helper()
			for _, workers := range []int{1, 4} {
				shellIx.SetParallelism(workers)
				plainIx.SetParallelism(workers)
				ws := make([][]float64, 5)
				for i := range ws {
					ws[i] = randWeights(rng, d)
				}
				topn := 1 + rng.Intn(30)
				want := make([][]Result, len(ws))
				for qi, w := range ws {
					ref, _, err := plainIx.TopN(w, topn)
					if err != nil {
						t.Fatal(err)
					}
					got, st, err := shellIx.TopN(w, topn)
					if err != nil {
						t.Fatal(err)
					}
					totalSkipped += st.RecordsSkippedByShells
					label := fmt.Sprintf("%dD %s workers=%d q%d solo", d, stage, workers, qi)
					resultsBitIdentical(t, label, got, ref)
					for i, s := range bruteScoreSeq(vecs, w, topn) {
						if math.Float64bits(got[i].Score) != math.Float64bits(s) {
							t.Fatalf("%s: rank %d: walk score %x, brute oracle %x",
								label, i, math.Float64bits(got[i].Score), math.Float64bits(s))
						}
					}
					want[qi] = ref
				}
				batch, _, err := shellIx.TopNBatch(ws, topn)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range batch {
					resultsBitIdentical(t,
						fmt.Sprintf("%dD %s workers=%d q%d batch", d, stage, workers, qi),
						batch[qi], want[qi])
				}
			}
			shellIx.SetParallelism(0)
			plainIx.SetParallelism(0)
		}

		check("fresh")

		// Insert-only delta: no tombstones, so shells keep pruning the
		// base layers while the buffer is merged in.
		extra := workload.Points(workload.Gaussian, 48, d, int64(500+d))
		ins := make([]Record, len(extra))
		for i, p := range extra {
			ins[i] = Record{ID: uint64(n + 1 + i), Vector: p}
			vecs = append(vecs, p)
		}
		if err := shellIx.InsertDelta(ins); err != nil {
			t.Fatal(err)
		}
		if err := plainIx.InsertDelta(ins); err != nil {
			t.Fatal(err)
		}
		skippedBefore := totalSkipped
		check("insert-delta")
		if totalSkipped == skippedBefore {
			t.Fatalf("%dD: shells never skipped a record under an insert-only delta buffer", d)
		}

		// Tombstones force shells to stand down (a skipped bucket could
		// hide the live record that replaces a dead near-top one); the
		// answers still must not move.
		dels := make([]uint64, 0, 12)
		for i := 0; i < 12; i++ {
			dels = append(dels, uint64(1+i*(n/13)))
		}
		if _, err := shellIx.DeleteDelta(dels, false); err != nil {
			t.Fatal(err)
		}
		if _, err := plainIx.DeleteDelta(dels, false); err != nil {
			t.Fatal(err)
		}
		dead := make(map[int]bool, len(dels))
		for _, id := range dels {
			dead[int(id)-1] = true // ID i+1 sits at vecs[i]
		}
		for i := 0; i < 4; i++ {
			id := uint64(3 + i*(n/5))
			if dead[int(id)-1] {
				continue
			}
			nv := workload.Points(workload.Gaussian, 1, d, int64(900+7*i))[0]
			if err := shellIx.UpdateDelta(id, nv); err != nil {
				t.Fatal(err)
			}
			if err := plainIx.UpdateDelta(id, nv); err != nil {
				t.Fatal(err)
			}
			vecs[int(id)-1] = nv
		}
		live := vecs[:0:0]
		for i, v := range vecs {
			if !dead[i] {
				live = append(live, v)
			}
		}
		vecs = live
		check("tombstoned-delta")

		// Compaction folds the buffer and must rebuild the shell tables of
		// every layer it re-peels.
		if err := shellIx.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := plainIx.Compact(); err != nil {
			t.Fatal(err)
		}
		if !shellIx.ShellPruning() {
			t.Fatalf("%dD: compaction left shell mode", d)
		}
		checkSlabInvariant(t, shellIx)
		checkSlabInvariant(t, plainIx)
		skippedBefore = totalSkipped
		check("compacted")
		if totalSkipped == skippedBefore {
			t.Fatalf("%dD: shells never skipped a record after compaction", d)
		}
	}
}

// TestPruningModeSemantics pins the unified pruning switch: the enum
// round-trips through its string form, every mode returns bit-identical
// results, PruneNothing disables shell pruning too (a caller asking for
// the paper-faithful full evaluation must not get partially-evaluated
// layers), and a clone with its shell tables dropped walks with layer
// pruning only.
func TestPruningModeSemantics(t *testing.T) {
	for _, m := range []PruningMode{PruneAll, PruneNothing} {
		got, err := ParsePruningMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParsePruningMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if m, err := ParsePruningMode(""); err != nil || m != PruneAll {
		t.Fatalf("empty mode = %v, %v; want the PruneAll default", m, err)
	}
	for _, bad := range []string{"bogus", "layers"} {
		if _, err := ParsePruningMode(bad); err == nil {
			t.Fatalf("ParsePruningMode accepted %q", bad)
		}
	}

	pts := workload.Points(workload.Gaussian, 1200, 3, 17)
	ix, err := Build(mkRecords(pts), Options{Seed: 5, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ws := make([][]float64, 8)
	for i := range ws {
		ws[i] = randWeights(rng, 3)
	}

	type probe struct {
		res     [][]Result
		skipped int
		pruned  int
	}
	run := func(ix *Index) probe {
		var p probe
		for _, w := range ws {
			res, st, err := ix.TopN(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			p.res = append(p.res, res)
			p.skipped += st.RecordsSkippedByShells
			p.pruned += st.LayersPruned
		}
		return p
	}

	all := run(ix)
	if all.skipped == 0 {
		t.Fatal("PruneAll on a shell index skipped nothing")
	}

	plain := ix.Clone()
	plain.SetShellPruning(false)
	if plain.PruningMode() != PruneAll || !ix.ShellPruning() {
		t.Fatalf("clone mode = %v, source shells = %v", plain.PruningMode(), ix.ShellPruning())
	}
	layers := run(plain)
	if layers.skipped != 0 {
		t.Fatalf("a clone without shell tables still skipped %d records via shells", layers.skipped)
	}
	for i := range ws {
		resultsBitIdentical(t, fmt.Sprintf("layers-only q%d", i), layers.res[i], all.res[i])
	}

	ix.SetPruningMode(PruneNothing)
	if ix.PruningMode() != PruneNothing {
		t.Fatalf("mode = %v after SetPruningMode(PruneNothing)", ix.PruningMode())
	}
	none := run(ix)
	if none.skipped != 0 || none.pruned != 0 {
		t.Fatalf("PruneNothing still pruned (skipped=%d, layers=%d)", none.skipped, none.pruned)
	}
	for i := range ws {
		resultsBitIdentical(t, fmt.Sprintf("no-prune q%d", i), none.res[i], all.res[i])
	}

	ix.SetPruningMode(PruneAll)
	if ix.PruningMode() != PruneAll {
		t.Fatalf("mode = %v after SetPruningMode(PruneAll)", ix.PruningMode())
	}
	if p := run(ix); p.skipped == 0 {
		t.Fatal("SetPruningMode(PruneAll) did not restore shell pruning")
	}

	// Runtime toggling drops and rebuilds the tables.
	ix.SetShellPruning(false)
	if ix.ShellPruning() || ix.shellTabs != nil {
		t.Fatal("SetShellPruning(false) left tables behind")
	}
	off := run(ix)
	for i := range ws {
		resultsBitIdentical(t, fmt.Sprintf("shells-off q%d", i), off.res[i], all.res[i])
	}
	ix.SetShellPruning(true)
	if !ix.ShellPruning() || ix.shellTabs == nil {
		t.Fatal("SetShellPruning(true) did not rebuild the tables")
	}
	if p := run(ix); p.skipped == 0 {
		t.Fatal("rebuilt tables never skipped a record")
	}
}

// TestShellStatsAccounting pins the documented invariant: evaluated +
// skipped-by-shells equals the total size of the accessed layers (the
// walk reads layers outermost-in, so the accessed set is a prefix), and
// ShellLayers never exceeds LayersAccessed.
func TestShellStatsAccounting(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 1500, 4, 29)
	ix, err := Build(mkRecords(pts), Options{Seed: 3, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	totalSkipped := 0
	for trial := 0; trial < 10; trial++ {
		w := randWeights(rng, 4)
		_, st, err := ix.TopN(w, 1+rng.Intn(25))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for k := 0; k < st.LayersAccessed; k++ {
			sum += len(ix.Layer(k))
		}
		if st.RecordsEvaluated+st.RecordsSkippedByShells != sum {
			t.Fatalf("trial %d: evaluated %d + skipped %d != accessed layer total %d",
				trial, st.RecordsEvaluated, st.RecordsSkippedByShells, sum)
		}
		if st.ShellLayers > st.LayersAccessed {
			t.Fatalf("trial %d: ShellLayers %d > LayersAccessed %d",
				trial, st.ShellLayers, st.LayersAccessed)
		}
		totalSkipped += st.RecordsSkippedByShells
	}
	if totalSkipped == 0 {
		t.Fatal("10 random queries never skipped a record on a 1500-point Gaussian corpus")
	}
}

// Shared fuzz corpora: one shell-mode index per dimension, built once.
var (
	shellFuzzOnce sync.Once
	shellFuzzIxs  map[int]*Index
)

func shellFuzzIndex(d int) *Index {
	shellFuzzOnce.Do(func() {
		shellFuzzIxs = make(map[int]*Index)
		for _, dd := range []int{2, 3, 4} {
			pts := workload.Points(workload.Gaussian, 400, dd, int64(90+dd))
			ix, err := Build(mkRecords(pts), Options{Seed: 7, Shells: true})
			if err != nil {
				panic(err)
			}
			shellFuzzIxs[dd] = ix
		}
	})
	return shellFuzzIxs[d]
}

// FuzzShellBucketBound fuzzes the soundness contract the whole shell
// design rests on: for any finite weight vector, every record of every
// bucket scores at or below its shellBucketBound — the bound is what
// licenses consumeLayerShells to skip a bucket without scoring it, so
// a single violation here is a wrong-answer bug, not a perf bug.
// Scores are computed by scoreSlabRange, the exact kernel the query
// path uses, so the FP-slack term is tested against real rounding.
func FuzzShellBucketBound(f *testing.F) {
	f.Add(1.0, -0.5, 0.25, 2.0, uint8(2))
	f.Add(0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(-3.5, 1e-9, 7.25, -0.125, uint8(1))
	f.Add(1e8, -1e8, 0.5, 0.5, uint8(2))
	f.Add(0.001, 1e6, -42.0, 3.25, uint8(0))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 float64, dimSel uint8) {
		d := 2 + int(dimSel%3)
		w := []float64{w0, w1, w2, w3}[:d]
		for _, wj := range w {
			// The query layer rejects non-finite weights, and astronomically
			// large ones overflow the bound arithmetic itself to ±Inf, where
			// "sound" stops being a meaningful claim.
			if math.IsNaN(wj) || math.IsInf(wj, 0) || math.Abs(wj) > 1e300 {
				t.Skip()
			}
		}
		ix := shellFuzzIndex(d)
		var sq float64
		for _, wj := range w {
			sq += wj * wj
		}
		wnorm := math.Sqrt(sq)
		for k := range ix.shellTabs {
			tab := &ix.shellTabs[k]
			if len(tab.buckets) == 0 {
				continue
			}
			wc := 0.0
			for j, wj := range w {
				wc += wj * tab.center[j]
			}
			sl := &ix.slabs[k]
			scores := make([]float64, len(sl.ids))
			for bi := range tab.buckets {
				b := &tab.buckets[bi]
				bound := shellBucketBound(w, wnorm, wc, tab, b)
				scoreSlabRange(scores, sl.data, w, b.lo, b.hi)
				for i := b.lo; i < b.hi; i++ {
					if !(scores[i] <= bound) {
						t.Fatalf("layer %d bucket %d row %d (id %d): score %g (%x) exceeds bound %g (%x) for w=%v",
							k, bi, i, sl.ids[i],
							scores[i], math.Float64bits(scores[i]),
							bound, math.Float64bits(bound), w)
					}
				}
			}
		}
	})
}

// TestShellWarmSearcherNextZeroAllocs extends the warm-searcher
// zero-alloc contract (TestWarmSearcherNextZeroAllocs) to the shell
// path: once the scratch — score buffer, collector, shell schedule
// (s.shellOrd, filled by insertion sort precisely because sort.Slice
// allocates) — is warm, draining a searcher over shell-mode layers
// must not allocate.
func TestShellWarmSearcherNextZeroAllocs(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 4000, 4, 53)
	ix, err := Build(mkRecords(pts), Options{Seed: 3, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetParallelism(1) // the fork-join path allocates goroutine bookkeeping
	w := []float64{0.4, -0.2, 0.9, 0.1}

	s := ix.NewSearcher(w, 64)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	// Re-prime the warm struct by hand, as TestWarmSearcherNextZeroAllocs
	// does, and drain again under the allocation counter.
	reset := func() {
		s.remain = 64
		s.k = 0
		s.cand.Reset()
		s.emit = s.emit[:0]
		s.emitPos = 0
		s.stats = Stats{}
	}
	reset()
	avg := testing.AllocsPerRun(20, func() {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		reset()
	})
	if avg != 0 {
		t.Fatalf("warm shell search allocates %v times per run, want 0", avg)
	}
}

// TestShellModeHalvesUniformEvaluations checks the paper's Section 6
// prediction on a shell-mode index: on uniformly distributed data the
// shells cut the records a top-10 query evaluates, against the same
// walk with layer pruning only, by at least a quarter (the paper
// predicts about half; 2D's sixteen sectors do better).
func TestShellModeHalvesUniformEvaluations(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Uniform, 4000, 2, 77)), Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	plainIx := ix.Clone()
	plainIx.SetShellPruning(false)
	evaluated := func(ix *Index) int {
		total := 0
		for _, w := range workload.QueryWeights(50, 2, 78) {
			_, st, err := ix.TopN(w, 10)
			if err != nil {
				t.Fatal(err)
			}
			total += st.RecordsEvaluated
		}
		return total
	}
	plain, shelled := evaluated(plainIx), evaluated(ix)
	if shelled >= plain*3/4 {
		t.Errorf("shells evaluated %d records vs %d with layer pruning only; expected at most three quarters", shelled, plain)
	}
	t.Logf("layers-only=%d shells=%d ratio=%.2f", plain, shelled, float64(shelled)/float64(plain))
}

// checkShellTableExact pins a shell-mode index against a brute-force
// ranking: the tables must tile every layer, and top-n answers for
// random weights — n = 1, 5 and more than the index holds — must match
// bit for bit.
func checkShellTableExact(t *testing.T, name string, ix *Index) {
	t.Helper()
	checkSlabInvariant(t, ix)
	recs := ix.Records()
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 5; trial++ {
		w := randWeights(rng, ix.Dim())
		for _, n := range []int{1, 5, len(recs) + 3} {
			got, _, err := ix.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRank(recs, w)
			if n < len(want) {
				want = want[:n]
			}
			sameRanking(t, fmt.Sprintf("%s trial %d n=%d", name, trial, n), got, want)
		}
	}
}

// TestShellTableSingleRecord: a one-record layer answers with that
// record, evaluated once, however many results are asked for.
func TestShellTableSingleRecord(t *testing.T) {
	ix, err := FromLayers([][]Record{{{ID: 7, Vector: []float64{3, 4, 5}}}}, Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.TopN([]float64{1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 || got[0].Score != 12 {
		t.Fatalf("got %v", got)
	}
	if st.RecordsEvaluated != 1 {
		t.Errorf("evaluated %d records, want 1", st.RecordsEvaluated)
	}
	checkShellTableExact(t, "single record", ix)
}

// TestShellTableAllRecordsAtCenter: records that all sit at the layer
// center have zero radius, so every bucket bound collapses to w·c; the
// answers must still be exact.
func TestShellTableAllRecordsAtCenter(t *testing.T) {
	ix, err := FromLayers([][]Record{
		{{ID: 1, Vector: []float64{2, 2}}, {ID: 2, Vector: []float64{2, 2}}, {ID: 3, Vector: []float64{2, 2}}},
	}, Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.TopN([]float64{1, -1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Score != 0 || got[1].Score != 0 {
		t.Fatalf("got %v", got)
	}
	checkShellTableExact(t, "all at center", ix)
}

// TestShellTableHighDimFaceBuckets drives the generic kernel at
// dimension 6, where a layer's shells split into 12 face buckets.
func TestShellTableHighDimFaceBuckets(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Gaussian, 300, 6, 56)), Options{Seed: 56, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 0, 1, 0, -0.5, 0}
	got, st, err := ix.TopN(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "6D axis weights", got, bruteRank(ix.Records(), w)[:5])
	if st.RecordsEvaluated > 300 {
		t.Errorf("evaluated %d of 300 records", st.RecordsEvaluated)
	}
	checkShellTableExact(t, "6D face buckets", ix)
}

// TestShellTableOverask: asking a shell-mode index for more results
// than it holds returns every record in rank order, and n = 0 returns
// none. (Core layers are never empty, so the empty-layer case of the
// old standalone shell index has no counterpart here.)
func TestShellTableOverask(t *testing.T) {
	ix, err := FromLayers([][]Record{
		{{ID: 1, Vector: []float64{1, 0}}, {ID: 2, Vector: []float64{0, 1}}},
	}, Options{Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.TopN([]float64{1, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("overask returned %d results, want 2", len(got))
	}
	if got0, _, err := ix.TopN([]float64{1, 0}, 0); err != nil || got0 != nil {
		t.Errorf("n=0 returned %v, %v", got0, err)
	}
	multi, err := Build(mkRecords(workload.Points(workload.Uniform, 200, 3, 58)), Options{Seed: 58, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	checkShellTableExact(t, "overask", ix)
	checkShellTableExact(t, "overask multi-layer", multi)
}
