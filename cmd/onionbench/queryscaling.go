package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// onionbench -query-scaling: the read-side performance trajectory.
//
// The paper's evaluation counts records and layers (Table 1, Figure 9);
// this mode measures what those counts cost on a real machine, across
// the pruning modes of the one columnar walk:
//
//	columnar        contiguous layer slabs, strided kernels, no pruning
//	                (the paper's full evaluation, PruneNothing)
//	columnar+prune  slabs plus the Cauchy–Schwarz/axis-box layer bound
//	shells          + spherical-shell intra-layer pruning (paper §6):
//	                slabs bucket-ordered around each layer centroid,
//	                angular buckets skipped by score bound
//
// Before any timing, every (corpus × worker count) combination is
// cross-checked: each mode must return bit-identical results (IDs,
// score bits, layers, order) to the unpruned walk at the first worker
// count, TopNBatch must match solo TopN, and that reference itself is
// checked against a brute-force scan on a sample of the queries.
// Shells are additionally checked with an active delta buffer —
// insert-only and with tombstones, shell tables live in both — so the
// §6 structure composes with the LSM write path. Any mismatch exits non-zero — scripts/ci.sh runs a
// small sweep as a regression gate on exactly this property.
//
// The summary lands in -query-out (BENCH_query.json) next to
// BENCH_build.json. The headline block is the §6
// acceptance ratio on the largest 4D corpus at one worker, with num_cpu
// alongside so readers can judge the parallel rows.

// queryScalingRun is one measured configuration of the sweep.
type queryScalingRun struct {
	Dim              int     `json:"dim"`
	N                int     `json:"n"`
	Layers           int     `json:"layers"`
	TopN             int     `json:"topn"`
	Mode             string  `json:"mode"`
	Workers          int     `json:"workers"`
	NsPerQuery       float64 `json:"ns_per_query"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	RecordsEvaluated float64 `json:"records_evaluated_avg"`
	LayersPruned     float64 `json:"layers_pruned_avg,omitempty"`
	RecordsSkipped   float64 `json:"records_skipped_by_shells_avg,omitempty"`
}

// queryHeadline is the acceptance number: the largest 4D corpus,
// sequential workers, smallest top-N (the paper's interactive shape).
type queryHeadline struct {
	Dim     int `json:"dim"`
	N       int `json:"n"`
	TopN    int `json:"topn"`
	Workers int `json:"workers"`
	// RecordsCutShellsVsPrune is the §6 acceptance ratio: average
	// records evaluated by columnar+prune divided by the shells mode's.
	RecordsCutShellsVsPrune float64 `json:"records_cut_shells_vs_prune"`
}

// queryScalingSummary is the BENCH_query.json schema.
type queryScalingSummary struct {
	Kind       string `json:"kind"`
	Generated  string `json:"generated"`
	Dist       string `json:"dist"`
	Seed       int64  `json:"seed"`
	Queries    int    `json:"queries"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    []int  `json:"workers"`
	TopNs      []int  `json:"topns"`
	// ServingMode records what backs the measured slabs. The sweep
	// builds its indexes in process, so this is always "heap" here; the
	// field exists so BENCH_query.json and BENCH_mmap.json (which
	// measures the mmap mode) are directly comparable.
	ServingMode     string            `json:"serving_mode"`
	ResidentBudget  int64             `json:"resident_budget_bytes,omitempty"`
	Runs            []queryScalingRun `json:"runs"`
	IdenticalOutput bool              `json:"identical_output"`
	Headline        *queryHeadline    `json:"headline,omitempty"`
}

// queryScaling sweeps dims × corpus sizes × top-N × worker counts over
// the scoring paths, gating on cross-path equivalence first.
func queryScaling(n, queries int, workerList, topNList, outPath string) {
	workers, err := parseWorkerList(workerList)
	if err != nil {
		fatal(err)
	}
	topNs, err := parseIntList(topNList)
	if err != nil {
		fatal(fmt.Errorf("-query-topns: %w", err))
	}
	if queries < 1 {
		queries = 1
	}

	// Corpora: the paper's evaluated dimensionalities at two scales, so
	// the sweep covers both layer count (grows with n) and layer size
	// (grows with n and with dim).
	type corpusSpec struct{ dim, n int }
	var specs []corpusSpec
	small := n / 10
	if small < 1000 {
		small = 1000
	}
	for _, d := range []int{2, 3, 4} {
		if small < n {
			specs = append(specs, corpusSpec{d, small})
		}
		specs = append(specs, corpusSpec{d, n})
	}

	fmt.Printf("=== query scaling: Gaussian, n up to %d, %d queries, seed=%d, workers %v ===\n",
		n, queries, *seedFlag, workers)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	summary := queryScalingSummary{
		Kind:            "onion-query-scaling",
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Dist:            "gaussian",
		Seed:            *seedFlag,
		Queries:         queries,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         workers,
		TopNs:           topNs,
		ServingMode:     "heap",
		IdenticalOutput: true,
	}

	for _, spec := range specs {
		start := time.Now()
		pts := workload.Points(workload.Gaussian, spec.n, spec.dim, *seedFlag+int64(spec.dim))
		recs := make([]core.Record, spec.n)
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: *parFlag})
		if err != nil {
			fatal(fmt.Errorf("build %dD n=%d: %w", spec.dim, spec.n, err))
		}
		fmt.Printf("--- %dD Gaussian, n=%d, %d layers (built in %v) ---\n",
			spec.dim, spec.n, ix.NumLayers(), time.Since(start).Round(time.Millisecond))

		ws := workload.QueryWeights(queries, spec.dim, *seedFlag+101)

		// Equivalence gate before any stopwatch: all paths, all worker
		// counts, both top-N depths.
		for _, topn := range topNs {
			if err := checkQueryEquivalence(ix, recs, ws, topn, workers); err != nil {
				summary.IdenticalOutput = false
				fatal(fmt.Errorf("%dD n=%d top-%d: %w", spec.dim, spec.n, topn, err))
			}
		}
		fmt.Printf("  equivalence: columnar ≡ +prune ≡ shells ≡ batch ≡ brute force at workers %v (delta on/off)\n", workers)

		fmt.Printf("  %5s %8s | %-15s | %12s | %10s\n",
			"topn", "workers", "mode", "ns/query", "records")
		for _, topn := range topNs {
			for _, w := range workers {
				ix.SetParallelism(w)
				for _, m := range queryModes {
					m.set(ix)
					ns, rec, pruned, skipped := measureSolo(ix, ws, topn)
					summary.Runs = append(summary.Runs, queryScalingRun{
						Dim: spec.dim, N: spec.n, Layers: ix.NumLayers(),
						TopN: topn, Mode: m.name, Workers: w,
						NsPerQuery:       ns,
						QueriesPerSec:    1e9 / ns,
						RecordsEvaluated: rec,
						LayersPruned:     pruned,
						RecordsSkipped:   skipped,
					})
					fmt.Printf("  %5d %8d | %-15s | %12.0f | %10.1f\n", topn, w, m.name, ns, rec)
				}
			}
		}
		fmt.Println()
	}

	summary.Headline = pickHeadline(summary.Runs)
	if h := summary.Headline; h != nil {
		fmt.Printf("headline (%dD, n=%d, top-%d, %d worker(s), %d CPU(s)): shells cut records %.2fx vs +prune\n",
			h.Dim, h.N, h.TopN, h.Workers, summary.NumCPU, h.RecordsCutShellsVsPrune)
	}

	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("summary written to %s\n", outPath)
}

// pickHeadline selects the acceptance configuration: the largest 4D
// corpus, one worker, smallest top-N measured.
func pickHeadline(runs []queryScalingRun) *queryHeadline {
	h := &queryHeadline{Workers: 1}
	for _, r := range runs {
		if r.Dim == 4 && r.N > h.N {
			h.N = r.N
		}
	}
	if h.N == 0 {
		return nil
	}
	h.Dim = 4
	h.TopN = math.MaxInt
	for _, r := range runs {
		if r.Dim == 4 && r.N == h.N && r.TopN < h.TopN {
			h.TopN = r.TopN
		}
	}
	prunedRec, shellsRec := 0.0, 0.0
	for _, r := range runs {
		if r.Dim != h.Dim || r.N != h.N || r.TopN != h.TopN || r.Workers != 1 {
			continue
		}
		switch r.Mode {
		case "columnar+prune":
			prunedRec = r.RecordsEvaluated
		case "shells":
			shellsRec = r.RecordsEvaluated
		}
	}
	if shellsRec > 0 {
		h.RecordsCutShellsVsPrune = prunedRec / shellsRec
	}
	return h
}

// measureSolo times ix.TopN over the query set, looping whole passes
// until enough wall-clock has elapsed for a stable ns/query. The first
// (untimed) pass warms caches and collects stats.
func measureSolo(ix *core.Index, ws [][]float64, topn int) (nsPerQuery, recAvg, prunedAvg, skippedAvg float64) {
	for _, w := range ws {
		_, st, err := ix.TopN(w, topn)
		if err != nil {
			fatal(err)
		}
		recAvg += float64(st.RecordsEvaluated)
		prunedAvg += float64(st.LayersPruned)
		skippedAvg += float64(st.RecordsSkippedByShells)
	}
	recAvg /= float64(len(ws))
	prunedAvg /= float64(len(ws))
	skippedAvg /= float64(len(ws))

	done := 0
	start := time.Now()
	for time.Since(start) < 150*time.Millisecond {
		for _, w := range ws {
			if _, _, err := ix.TopN(w, topn); err != nil {
				fatal(err)
			}
		}
		done += len(ws)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(done), recAvg, prunedAvg, skippedAvg
}

// queryMode is one pruning configuration of the columnar walk.
type queryMode struct {
	name string
	set  func(ix *core.Index)
}

// queryModes lists the swept configurations; the first, the paper's
// unpruned walk, is the equivalence gate's reference.
var queryModes = []queryMode{
	{"columnar", func(ix *core.Index) { ix.SetShellPruning(false); ix.SetPruningMode(core.PruneNothing) }},
	{"columnar+prune", func(ix *core.Index) { ix.SetShellPruning(false); ix.SetPruningMode(core.PruneAll) }},
	{"shells", func(ix *core.Index) { ix.SetShellPruning(true); ix.SetPruningMode(core.PruneAll) }},
}

// checkQueryEquivalence asserts that every mode, and TopNBatch, returns
// bit-identical results at every worker count, and that the reference —
// the unpruned walk at the first worker count — agrees with a
// brute-force scan of the raw records on a sample of the queries.
func checkQueryEquivalence(ix *core.Index, recs []core.Record, ws [][]float64, topn int, workers []int) error {
	defer ix.SetParallelism(workers[0])
	var ref [][]core.Result
	for _, w := range workers {
		ix.SetParallelism(w)
		for _, m := range queryModes {
			m.set(ix)
			got := make([][]core.Result, len(ws))
			for q, wt := range ws {
				res, _, err := ix.TopN(wt, topn)
				if err != nil {
					return err
				}
				got[q] = res
			}
			if ref == nil {
				ref = got
			}
			batched, _, err := ix.TopNBatch(ws, topn)
			if err != nil {
				return err
			}
			for q := range ws {
				if !sameResults(ref[q], got[q]) {
					return fmt.Errorf("%s diverges from the unpruned walk (query %d, workers=%d)", m.name, q, w)
				}
				if !sameResults(got[q], batched[q]) {
					return fmt.Errorf("%s: TopNBatch diverges from solo TopN (query %d, workers=%d)", m.name, q, w)
				}
			}
		}
	}

	if err := checkShellsDeltaEquivalence(ix, recs, ws, topn); err != nil {
		return err
	}

	// Brute-force oracle on a sample: scores recomputed with the same
	// accumulation order the index uses, so equality is bitwise.
	sample := len(ws)
	if sample > 8 {
		sample = 8
	}
	for q := 0; q < sample; q++ {
		if err := checkBruteForce(recs, ws[q], topn, ref[q]); err != nil {
			return fmt.Errorf("query %d: %w", q, err)
		}
	}
	return nil
}

// checkShellsDeltaEquivalence asserts the §6 shell path composes with
// the LSM write path: on a shallow clone carrying an active delta
// buffer, shells on and off must return bit-identical merged rankings,
// and the shells-off reference must match a brute-force scan of the
// merged record set. Two delta shapes are exercised — insert-only
// and mixed inserts + tombstones. Shell tables stay live in both: with
// tombstones pending, the walk keeps dead rows out of the ranking but
// counts them toward each layer's maximum, the Corollary 1 bound.
func checkShellsDeltaEquivalence(ix *core.Index, recs []core.Record, ws [][]float64, topn int) error {
	dim := len(recs[0].Vector)
	ix.SetPruningMode(core.PruneAll)
	extraPts := workload.Points(workload.Gaussian, 48, dim, *seedFlag+303)
	extra := make([]core.Record, len(extraPts))
	for i, p := range extraPts {
		extra[i] = core.Record{ID: uint64(len(recs) + 1 + i), Vector: p}
	}
	var dels []uint64
	for i := 0; i < len(recs) && len(dels) < 16; i += 1 + len(recs)/17 {
		dels = append(dels, recs[i].ID)
	}
	for _, shape := range []struct {
		name string
		dels []uint64
	}{
		{"insert-only", nil},
		{"mixed", dels},
	} {
		dc := ix.CloneDelta()
		if err := dc.InsertDelta(extra); err != nil {
			return fmt.Errorf("delta %s: %w", shape.name, err)
		}
		if len(shape.dels) > 0 {
			if _, err := dc.DeleteDelta(shape.dels, false); err != nil {
				return fmt.Errorf("delta %s: %w", shape.name, err)
			}
		}
		dc.SetShellPruning(false)
		off := make([][]core.Result, len(ws))
		for q, wt := range ws {
			res, _, err := dc.TopN(wt, topn)
			if err != nil {
				return err
			}
			off[q] = res
		}
		dc.SetShellPruning(true)
		for q, wt := range ws {
			res, _, err := dc.TopN(wt, topn)
			if err != nil {
				return err
			}
			if !sameResults(off[q], res) {
				return fmt.Errorf("delta %s: shells diverge from shells-off (query %d)", shape.name, q)
			}
		}
		// Brute-force oracle over the merged record set, on a sample.
		dead := make(map[uint64]bool, len(shape.dels))
		for _, id := range shape.dels {
			dead[id] = true
		}
		merged := make([]core.Record, 0, len(recs)+len(extra))
		for _, r := range recs {
			if !dead[r.ID] {
				merged = append(merged, r)
			}
		}
		merged = append(merged, extra...)
		for q := 0; q < len(ws) && q < 4; q++ {
			if err := checkBruteForce(merged, ws[q], topn, off[q]); err != nil {
				return fmt.Errorf("delta %s query %d: %w", shape.name, q, err)
			}
		}
	}
	return nil
}

// checkBruteForce verifies one reference result list against a full
// scan: the descending score sequence must match bitwise (ties can
// permute IDs between equally-scored records, so IDs are checked by
// recomputation instead of position).
func checkBruteForce(recs []core.Record, w []float64, topn int, got []core.Result) error {
	scores := make([]float64, len(recs))
	byID := make(map[uint64]float64, len(recs))
	for i, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		scores[i] = s
		byID[r.ID] = s
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	want := topn
	if want > len(recs) {
		want = len(recs)
	}
	if len(got) != want {
		return fmt.Errorf("brute force: %d results, want %d", len(got), want)
	}
	for i, r := range got {
		if math.Float64bits(r.Score) != math.Float64bits(scores[i]) {
			return fmt.Errorf("brute force: rank %d score %v, want %v", i, r.Score, scores[i])
		}
		if s, ok := byID[r.ID]; !ok || math.Float64bits(s) != math.Float64bits(r.Score) {
			return fmt.Errorf("brute force: rank %d id %d does not score %v", i, r.ID, r.Score)
		}
	}
	return nil
}

// sameResults compares two result lists bitwise (rank order, IDs,
// score bits, layer of origin).
func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Layer != b[i].Layer ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
