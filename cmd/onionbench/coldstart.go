package main

// -coldstart: the beyond-RAM serving benchmark. Three phases:
//
//  1. Oracle gate: a small corpus is checkpointed in format v2 and
//     served three ways — the original heap index, a heap decode of
//     the v2 file, and the mmap-backed store — across dims × top-N ×
//     worker counts, with shells and layer pruning on. TopN,
//     progressive search and TopNBatch must agree bitwise across all
//     three, and with brute force. Nothing is reported unless this
//     passes: a fast cold start that serves different answers is a
//     bug, not a result.
//  2. Restart race: the same corpus is bootstrapped into a WAL
//     directory and cleanly checkpointed (empty log — replay would
//     measure the WAL, not the checkpoint). Restart-to-first-query is
//     timed for a heap decode of the v2 checkpoint and for the mmap
//     open of the same file; the speedup is the headline number.
//  3. Beyond-budget serving: the mapped checkpoint is reopened with a
//     resident budget a fraction of the file size and serves a
//     sustained random query load. QPS, evictions, estimated faults
//     and the Eq. 2 predicted-vs-actual page-read comparison land in
//     the report.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

type coldstartReport struct {
	Kind       string `json:"kind"` // "onion-coldstart"
	Generated  string `json:"generated"`
	Dist       string `json:"dist"`
	Seed       int64  `json:"seed"`
	N          int    `json:"n"`
	Dim        int    `json:"dim"`
	Layers     int    `json:"layers"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	ServingMode    string `json:"serving_mode"` // "mmap": what this report measures
	ResidentBudget int64  `json:"resident_budget_bytes"`

	// Oracle gate over dims × top-N × workers: heap ≡ v2-decode ≡ mmap
	// ≡ brute force on TopN, progressive and batch paths.
	OracleConfigs   int  `json:"oracle_configs"`
	IdenticalOutput bool `json:"identical_output"`

	CheckpointBytes int64 `json:"checkpoint_bytes"`

	// Restart-to-first-query, min over repetitions.
	RestartDecodeMS float64 `json:"restart_decode_ms"` // v2 checkpoint, heap decode
	RestartMmapMS   float64 `json:"restart_mmap_ms"`   // v2 checkpoint, mmap
	RestartSpeedup  float64 `json:"restart_speedup"`

	// Sustained queries against a corpus larger than the resident
	// budget.
	Budget struct {
		Queries            int     `json:"queries"`
		TopN               int     `json:"topn"`
		DeepTopN           int     `json:"deep_topn"`       // every DeepEvery-th query walks deep
		DeepEvery          int     `json:"deep_topn_every"` // to push extents past the budget
		QPS                float64 `json:"qps"`
		NsPerQuery         float64 `json:"ns_per_query"`
		FileBytes          int64   `json:"file_bytes"`
		ResidentBytes      int64   `json:"resident_bytes"`
		Evictions          int64   `json:"evictions"`
		MajorFaultsEst     int64   `json:"major_faults_est"`
		ExtentsTouched     int64   `json:"extents_touched"`
		PredictedPageReads float64 `json:"predicted_page_reads"` // Eq. 2 over served queries
		PredictedGEActual  bool    `json:"predicted_ge_actual_extents"`
	} `json:"beyond_budget"`
}

// coldstart drives all three phases and writes the report.
func coldstart(n, queries int, outPath string) {
	rep := coldstartReport{
		Kind:        "onion-coldstart",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Dist:        "gaussian",
		Seed:        *seedFlag,
		N:           n,
		Dim:         3,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ServingMode: "mmap",
	}

	// ---- phase 1: oracle gate -------------------------------------
	oracleN := n
	if oracleN > 10_000 {
		oracleN = 10_000
	}
	fmt.Printf("=== coldstart phase 1: mmap ≡ heap ≡ brute oracle (n=%d) ===\n", oracleN)
	configs, err := coldstartOracle(oracleN)
	if err != nil {
		fatal(err)
	}
	rep.OracleConfigs = configs
	rep.IdenticalOutput = true
	fmt.Printf("oracle: %d configurations bit-identical across heap, v2 decode, mmap and brute force\n\n", configs)

	// ---- phase 2: restart race ------------------------------------
	fmt.Printf("=== coldstart phase 2: restart-to-first-query at n=%d ===\n", n)
	tmp, err := os.MkdirTemp("", "onion-coldstart-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	pts := workload.Points(workload.Gaussian, n, rep.Dim, *seedFlag)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: *parFlag, Shells: true})
	if err != nil {
		fatal(err)
	}
	rep.Layers = ix.NumLayers()
	fmt.Printf("built %dD corpus n=%d layers=%d in %v\n", rep.Dim, n, ix.NumLayers(), time.Since(start).Round(time.Millisecond))

	opt := core.Options{Seed: *seedFlag, Parallelism: *parFlag, Shells: true}
	dir := filepath.Join(tmp, "data")
	bootstrapDir(dir, ix, wal.Config{Options: opt})

	qw := workload.QueryWeights(1, rep.Dim, *seedFlag+31)[0]
	const reps = 3
	decodeNS := measureRestart(dir, wal.Config{Options: opt}, qw, reps)
	mmapNS := measureRestart(dir, wal.Config{Options: opt, Mmap: true}, qw, reps)
	rep.RestartDecodeMS = float64(decodeNS) / 1e6
	rep.RestartMmapMS = float64(mmapNS) / 1e6
	rep.RestartSpeedup = float64(decodeNS) / float64(mmapNS)
	fmt.Printf("restart-to-first-query: decode=%.1fms mmap=%.2fms speedup=%.1fx\n\n",
		rep.RestartDecodeMS, rep.RestartMmapMS, rep.RestartSpeedup)

	// ---- phase 3: beyond-budget serving ---------------------------
	cpPath := findCheckpoint(dir)
	info, err := os.Stat(cpPath)
	if err != nil {
		fatal(err)
	}
	rep.CheckpointBytes = info.Size()
	budget := info.Size() / 8
	rep.ResidentBudget = budget
	fmt.Printf("=== coldstart phase 3: sustained queries, resident budget %d of %d file bytes ===\n",
		budget, info.Size())

	mp, err := storage.OpenMappedV2(cpPath, budget)
	if err != nil {
		fatal(err)
	}
	defer mp.Close()
	mix, err := mp.Index(opt)
	if err != nil {
		fatal(err)
	}
	// The walk's hot set — the outer layers every query revisits — is
	// deliberately tiny, so a pure top-10 load would never pressure the
	// budget. Every 16th query walks deep instead, paging mid extents
	// in and forcing the LRU to advise cold layers out.
	const (
		topn      = 10
		deepEvery = 16
	)
	deepTopN := n / 20
	if deepTopN < topn {
		deepTopN = topn
	}
	ws := workload.QueryWeights(256, rep.Dim, *seedFlag+32)
	var predicted float64
	qstart := time.Now()
	for q := 0; q < queries; q++ {
		want := topn
		if q%deepEvery == deepEvery-1 {
			want = deepTopN
		}
		res, st, err := mix.TopN(ws[q%len(ws)], want)
		if err != nil {
			fatal(err)
		}
		if len(res) == 0 {
			fatal(fmt.Errorf("coldstart: empty result at query %d", q))
		}
		predicted += storage.EstimateCost(st.LayersAccessed, st.RecordsEvaluated, rep.Dim)
	}
	elapsed := time.Since(qstart)

	b := &rep.Budget
	b.Queries = queries
	b.TopN = topn
	b.DeepTopN = deepTopN
	b.DeepEvery = deepEvery
	b.QPS = float64(queries) / elapsed.Seconds()
	b.NsPerQuery = float64(elapsed.Nanoseconds()) / float64(queries)
	b.FileBytes = mp.SizeBytes()
	b.ResidentBytes = mp.ResidentBytes()
	b.Evictions = mp.Evictions()
	b.MajorFaultsEst = mp.MajorFaultsEst()
	b.ExtentsTouched = mp.ExtentsTouched()
	b.PredictedPageReads = predicted
	b.PredictedGEActual = predicted >= float64(b.ExtentsTouched)
	if !b.PredictedGEActual {
		fatal(fmt.Errorf("coldstart: Eq. 2 predicted %.0f page reads < %d extents touched", predicted, b.ExtentsTouched))
	}
	fmt.Printf("%d queries in %v: %.0f qps, resident=%d/%d bytes, evictions=%d, est faults=%d pages\n",
		queries, elapsed.Round(time.Millisecond), b.QPS, b.ResidentBytes, budget, b.Evictions, b.MajorFaultsEst)
	fmt.Printf("Eq.2 predicted %.0f page reads vs %d extents touched (predicted ≥ actual: %v)\n\n",
		predicted, b.ExtentsTouched, b.PredictedGEActual)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

// coldstartOracle checks three-way bit-identity (plus brute force) over
// dims × top-N × workers and returns the configuration count.
func coldstartOracle(n int) (int, error) {
	tmp, err := os.MkdirTemp("", "onion-oracle-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	configs := 0
	for _, dim := range []int{2, 3, 4} {
		pts := workload.Points(workload.Gaussian, n, dim, *seedFlag+int64(dim))
		recs := make([]core.Record, n)
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		opt := core.Options{Seed: *seedFlag, Shells: true}
		heap, err := core.Build(recs, opt)
		if err != nil {
			return 0, err
		}
		path := filepath.Join(tmp, fmt.Sprintf("oracle-%dd.onion", dim))
		if err := storage.Write(path, heap); err != nil {
			return 0, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		decoded, _, err := storage.LoadV2Bytes(data, opt)
		if err != nil {
			return 0, err
		}
		// A deliberately tiny budget so the oracle also covers the
		// eviction path: extents are advised out mid-sweep and must
		// refault to identical bytes.
		mp, err := storage.OpenMappedV2(path, 1<<16)
		if err != nil {
			return 0, err
		}
		mapped, err := mp.Index(opt)
		if err != nil {
			mp.Close()
			return 0, err
		}

		ws := workload.QueryWeights(16, dim, *seedFlag+64+int64(dim))
		for _, topn := range []int{1, 10, 100} {
			for _, workers := range []int{1, 4} {
				for _, ix := range []*core.Index{heap, decoded, mapped} {
					ix.SetParallelism(workers)
				}
				if err := checkColdstartConfig(heap, decoded, mapped, recs, ws, topn); err != nil {
					mp.Close()
					return 0, fmt.Errorf("dim=%d topn=%d workers=%d: %w", dim, topn, workers, err)
				}
				configs++
			}
		}
		mp.Close()
	}
	return configs, nil
}

// checkColdstartConfig runs every query path on all three backings and
// demands bitwise agreement, with brute force as the outside referee.
func checkColdstartConfig(heap, decoded, mapped *core.Index, recs []core.Record, ws [][]float64, topn int) error {
	for wi, w := range ws {
		base, _, err := heap.TopN(w, topn)
		if err != nil {
			return err
		}
		if err := checkBruteForce(recs, w, topn, base); err != nil {
			return fmt.Errorf("query %d: heap vs brute: %w", wi, err)
		}
		for _, alt := range []struct {
			name string
			ix   *core.Index
		}{{"v2-decode", decoded}, {"mmap", mapped}} {
			got, _, err := alt.ix.TopN(w, topn)
			if err != nil {
				return fmt.Errorf("query %d: %s: %w", wi, alt.name, err)
			}
			if !sameResults(base, got) {
				return fmt.Errorf("query %d: %s TopN diverged from heap", wi, alt.name)
			}
			// Progressive: the streamed prefix must match the one-shot
			// list element for element.
			s := alt.ix.NewSearcher(w, topn)
			for i := range base {
				r, ok := s.Next()
				if !ok {
					return fmt.Errorf("query %d: %s progressive ended at %d of %d", wi, alt.name, i, len(base))
				}
				if r != base[i] {
					return fmt.Errorf("query %d: %s progressive rank %d = %+v, want %+v", wi, alt.name, i+1, r, base[i])
				}
			}
		}
	}
	// Batch: all weights in one request, per-query results must match
	// the solo runs on every backing.
	baseBatch, _, err := heap.TopNBatch(ws, topn)
	if err != nil {
		return err
	}
	for qi, w := range ws {
		solo, _, err := heap.TopN(w, topn)
		if err != nil {
			return err
		}
		if !sameResults(solo, baseBatch[qi]) {
			return fmt.Errorf("heap batch query %d diverged from solo", qi)
		}
	}
	for _, alt := range []struct {
		name string
		ix   *core.Index
	}{{"v2-decode", decoded}, {"mmap", mapped}} {
		batch, _, err := alt.ix.TopNBatch(ws, topn)
		if err != nil {
			return fmt.Errorf("%s batch: %w", alt.name, err)
		}
		for qi := range ws {
			if !sameResults(baseBatch[qi], batch[qi]) {
				return fmt.Errorf("%s batch query %d diverged from heap batch", alt.name, qi)
			}
		}
	}
	return nil
}

// bootstrapDir seeds a WAL directory with one clean checkpoint of ix
// and no log tail, the state a clean shutdown leaves behind.
func bootstrapDir(dir string, ix *core.Index, cfg wal.Config) {
	mgr, rec, err := wal.Open(dir, cfg)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		fatal(fmt.Errorf("coldstart: fresh dir %s already has state", dir))
	}
	if err := mgr.Bootstrap(ix); err != nil {
		fatal(err)
	}
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
}

// measureRestart times wal.Open + one top-N query, min over reps — the
// restart-to-first-query latency an operator sees.
func measureRestart(dir string, cfg wal.Config, w []float64, reps int) int64 {
	best := int64(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		mgr, ix, err := wal.Open(dir, cfg)
		if err != nil {
			fatal(err)
		}
		if ix == nil {
			fatal(fmt.Errorf("coldstart: no state recovered from %s", dir))
		}
		if _, _, err := ix.TopN(w, 10); err != nil {
			fatal(err)
		}
		dt := time.Since(t0).Nanoseconds()
		mgr.Close()
		if mp := mgr.Mapped(); mp != nil {
			// Benchmark-only: the index is discarded before the next rep,
			// so unmapping here is safe (servers never do this).
			mp.Close()
		}
		if best == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// findCheckpoint returns the single checkpoint file in a WAL dir.
func findCheckpoint(dir string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.onion"))
	if err != nil || len(matches) != 1 {
		fatal(fmt.Errorf("coldstart: want exactly one checkpoint in %s, got %v", dir, matches))
	}
	return matches[0]
}
