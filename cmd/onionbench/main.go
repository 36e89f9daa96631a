// Command onionbench regenerates every table and figure of the paper's
// experimental evaluation (Section 5) plus the qualitative comparisons
// of Sections 2, 4 and 6. See EXPERIMENTS.md for the recorded outputs.
//
// Usage:
//
//	onionbench -exp all                 # everything, paper scale (1M points)
//	onionbench -exp table1,fig8 -quick  # selected experiments at 100k points
//	onionbench -exp fig9 -n 250000 -queries 200
//
// Experiments: fig8, table1, fig9, table2, fig10, table3, fagin,
// shells, decay, hier.
//
// The four headline test sets are {3D,4D} × {Gaussian(0,1),
// Uniform(-0.5,0.5)}, 1,000,000 points each (paper Section 5). Indexes
// are built once per run and shared by all selected experiments.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fagin"
	"repro/internal/hierarchy"
	"repro/internal/storage"
	"repro/internal/workload"
)

var (
	expFlag     = flag.String("exp", "all", "comma-separated experiments: fig8,table1,fig9,table2,fig10,table3,fagin,shells,decay,hier or 'all'")
	nFlag       = flag.Int("n", 1_000_000, "points per test set")
	quickFlag   = flag.Bool("quick", false, "shrink to 100,000 points and 200 queries for a fast run")
	queriesFlag = flag.Int("queries", 1000, "random queries per measurement (paper: 1000)")
	seedFlag    = flag.Int64("seed", 2000, "base RNG seed")
	outFlag     = flag.String("out", "", "directory for TSV copies of every series (optional)")
	progFlag    = flag.Bool("progress", true, "print build progress")
	plotFlag    = flag.Bool("plot", false, "render ASCII plots for the figure experiments")
	parFlag     = flag.Int("parallelism", 0, "worker bound for hull construction and query scoring (0 = one per CPU, 1 = sequential)")

	buildScalingFlag = flag.Bool("build-scaling", false, "sweep build worker counts on a Gaussian 4D corpus instead of running experiments; emits -build-out JSON")
	buildWorkersFlag = flag.String("build-workers", "1,2,4,8", "build-scaling: comma-separated worker counts to sweep")
	buildOutFlag     = flag.String("build-out", "BENCH_build.json", "build-scaling: summary JSON output path")

	queryScalingFlag = flag.Bool("query-scaling", false, "sweep query pruning modes (columnar/pruned/shells) across dims, corpus sizes and worker counts instead of running experiments; emits -query-out JSON")
	queryWorkersFlag = flag.String("query-workers", "1,4", "query-scaling: comma-separated worker counts to sweep and cross-check")
	queryTopNsFlag   = flag.String("query-topns", "10,100", "query-scaling: comma-separated top-N depths to sweep")
	queryOutFlag     = flag.String("query-out", "BENCH_query.json", "query-scaling: summary JSON output path")

	cacheScalingFlag = flag.Bool("cache-scaling", false, "measure the weight-keyed result cache on a zipfian workload instead of running experiments; gates on cached ≡ uncached ≡ brute force, emits -cache-out JSON")
	cacheOutFlag     = flag.String("cache-out", "BENCH_cache.json", "cache-scaling: summary JSON output path")

	shardScalingFlag  = flag.Bool("shard-scaling", false, "stand up in-process shard clusters behind a coordinator instead of running experiments; gates merged output bitwise against a one-node oracle, emits -shard-out JSON")
	shardCountsFlag   = flag.String("shard-counts", "1,2,3,5", "shard-scaling: comma-separated shard counts to sweep")
	shardReplicasFlag = flag.String("shard-replicas", "1,2", "shard-scaling: comma-separated replica counts per shard group")
	shardOutFlag      = flag.String("shard-out", "BENCH_shard.json", "shard-scaling: summary JSON output path")

	mixedFlag     = flag.Bool("mixed-workload", false, "drive an in-process onionserve with concurrent readers and a sustained mutation stream instead of running experiments; gates sampled queries against brute force and the final snapshot against a rebuild oracle, emits -mixed-out JSON")
	mixedReaders  = flag.Int("mixed-readers", 4, "mixed-workload: concurrent reader goroutines")
	mixedRateFlag = flag.Int("mixed-rate", 200, "mixed-workload: target mutations per second (0 = unthrottled)")
	mixedDurFlag  = flag.Duration("mixed-dur", 20*time.Second, "mixed-workload: measurement duration")
	mixedDTFlag   = flag.Int("mixed-delta-threshold", 0, "mixed-workload: server delta compaction threshold (0 = server default, negative = legacy synchronous cascade)")
	mixedOutFlag  = flag.String("mixed-out", "BENCH_write.json", "mixed-workload: summary JSON output path")

	compactionFlag   = flag.Bool("compaction-scaling", false, "sweep background-fold cost (flat full re-peel vs hierarchical per-cluster fold) across corpus and delta sizes instead of running experiments; gates every publish on a brute-force + flat-twin bit-equivalence oracle, emits -compaction-out JSON")
	compSizesFlag    = flag.String("compaction-sizes", "10000,40000,160000", "compaction-scaling: comma-separated corpus sizes (-n overrides with a single size)")
	compDeltasFlag   = flag.String("compaction-deltas", "64,512,4096", "compaction-scaling: comma-separated delta-buffer sizes to fold")
	compClustersFlag = flag.Int("compaction-clusters", 0, "compaction-scaling: k-means cluster count (0 = heuristic, ~4096 records per cluster)")
	compRoundsFlag   = flag.Int("compaction-rounds", 2, "compaction-scaling: folds measured per configuration")
	compOutFlag      = flag.String("compaction-out", "BENCH_compact.json", "compaction-scaling: summary JSON output path")

	coldstartFlag    = flag.Bool("coldstart", false, "measure mmap-backed serving instead of running experiments: restart-to-first-query (heap decode vs mmap of the same clean v2 checkpoint) and sustained queries under a resident budget 1/8th of the checkpoint; gates mmap ≡ heap ≡ brute force first, emits -coldstart-out JSON")
	coldstartOutFlag = flag.String("coldstart-out", "BENCH_mmap.json", "coldstart: summary JSON output path")

	serveLoadFlag = flag.String("serve-load", "", "load-test a query server instead of running experiments: a base URL like http://host:8080, or 'self' to serve a synthetic corpus in-process")
	serveConcFlag = flag.Int("serve-conc", 16, "serve-load: concurrent clients")
	serveDurFlag  = flag.Duration("serve-dur", 10*time.Second, "serve-load: measurement duration")
	serveTopNFlag = flag.Int("serve-topn", 10, "serve-load: N per top-N query")
	serveOutFlag  = flag.String("serve-out", "BENCH_server.json", "serve-load: summary JSON output path")
)

// testSet is one of the paper's four synthetic data sets.
type testSet struct {
	name string
	dist workload.Distribution
	dim  int
	ix   *core.Index
	n    int
}

func main() {
	flag.Parse()
	n := *nFlag
	queries := *queriesFlag
	if *quickFlag {
		if n > 100_000 {
			n = 100_000
		}
		if queries > 200 {
			queries = 200
		}
	}
	if *buildScalingFlag {
		// The build-scaling workload is the paper-scale-adjacent 100k×4d
		// corpus unless -n was given explicitly (the 1M default of the
		// experiment suite would take hours × worker counts).
		bn := 100_000
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				bn = n
			}
		})
		buildScaling(bn, *buildWorkersFlag, *buildOutFlag)
		return
	}
	if *queryScalingFlag {
		// Same convention as -build-scaling: the committed baseline is the
		// 100k-point corpus family (the acceptance corpus is 100k×4D);
		// -n/-queries override explicitly for CI smokes and deep runs.
		qn, qq := 100_000, 64
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n":
				qn = n
			case "queries":
				qq = queries
			}
		})
		queryScaling(qn, qq, *queryWorkersFlag, *queryTopNsFlag, *queryOutFlag)
		return
	}
	if *cacheScalingFlag {
		// Same convention as the other scaling modes: the committed
		// baseline is the 100k×4D acceptance corpus with a fixed number of
		// zipfian draws; -n/-queries override for CI smokes and deep runs.
		cn, cq := 100_000, 512
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n":
				cn = n
			case "queries":
				cq = queries
			}
		})
		cacheScaling(cn, cq, *cacheOutFlag)
		return
	}
	if *shardScalingFlag {
		// Same convention as the other scaling modes, sized down further:
		// every configuration rebuilds the corpus as S per-shard indexes,
		// so the sweep costs ~len(configs) full builds. 20k keeps the
		// committed 8-config run around a minute; -n/-queries override for
		// CI smokes and deep runs.
		sn, sq := 20_000, 64
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n":
				sn = n
			case "queries":
				sq = queries
			}
		})
		shardScaling(sn, sq, *shardCountsFlag, *shardReplicasFlag, *shardOutFlag)
		return
	}
	if *mixedFlag {
		// Unlike the scaling sweeps this mode builds the corpus once, so
		// the committed baseline runs at the experiment suite's full 1M
		// scale; -n/-quick shrink it for CI smokes.
		mixedWorkload(n, *mixedReaders, *mixedRateFlag, *mixedDurFlag, *mixedDTFlag, *mixedOutFlag)
		return
	}
	if *compactionFlag {
		// Same convention as the other scaling modes: the committed
		// baseline sweeps the -compaction-sizes list; an explicit -n
		// collapses the sweep to that single corpus for CI smokes.
		sizes := *compSizesFlag
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				sizes = fmt.Sprint(n)
			}
		})
		compactionScaling(sizes, *compDeltasFlag, *compClustersFlag, *compRoundsFlag, *compOutFlag)
		return
	}
	if *coldstartFlag {
		// The acceptance run is paper scale (the restart speedup is only
		// meaningful when the decode is corpus-sized), so the committed
		// baseline uses the full -n default; -n/-queries shrink for CI.
		coldstart(n, queries, *coldstartOutFlag)
		return
	}
	if *serveLoadFlag != "" {
		serveLoad(*serveLoadFlag, n, *serveConcFlag, *serveDurFlag, *serveTopNFlag, *serveOutFlag)
		return
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	has := func(name string) bool { return all || want[name] }

	if *outFlag != "" {
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("onionbench: n=%d per test set, %d queries per measurement, seed=%d\n\n", n, queries, *seedFlag)

	needCore := has("fig8") || has("table1") || has("fig9") || has("table2") || has("fig10") || has("table3") || has("shells")
	var sets []*testSet
	if needCore {
		sets = buildTestSets(n)
	}

	if has("fig8") {
		fig8(sets)
	}
	var t1 map[string]*sweep
	if has("table1") || has("fig9") || has("table2") || has("fig10") || has("table3") {
		t1 = runSweeps(sets, queries)
	}
	if has("table1") {
		table1(sets, t1)
	}
	if has("fig9") {
		fig9(sets, t1)
	}
	if has("table2") {
		table2(sets, t1)
	}
	if has("fig10") || has("table3") {
		fig10table3(sets, t1, has("fig10"), has("table3"))
	}
	if has("fagin") {
		faginExp(n, queries)
	}
	if has("shells") {
		shellsExp(sets, queries)
	}
	if has("decay") {
		decayExp(n)
	}
	if has("hier") {
		hierExp(n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onionbench:", err)
	os.Exit(1)
}

func buildTestSets(n int) []*testSet {
	specs := []struct {
		name string
		dist workload.Distribution
		dim  int
	}{
		{"3D Gaussian", workload.Gaussian, 3},
		{"4D Gaussian", workload.Gaussian, 4},
		{"3D Uniform", workload.Uniform, 3},
		{"4D Uniform", workload.Uniform, 4},
	}
	// The four peels are independent; build them concurrently (the
	// paper's 1M 4D sets dominate the harness wall-clock otherwise).
	sets := make([]*testSet, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, s := range specs {
		wg.Add(1)
		go func(i int, name string, dist workload.Distribution, dim int) {
			defer wg.Done()
			start := time.Now()
			pts := workload.Points(dist, n, dim, *seedFlag+int64(i))
			recs := make([]core.Record, n)
			for j, p := range pts {
				recs[j] = core.Record{ID: uint64(j + 1), Vector: p}
			}
			var progress func(int, int, int)
			if *progFlag {
				last := time.Now()
				progress = func(layer, assigned, total int) {
					if time.Since(last) > 10*time.Second {
						last = time.Now()
						fmt.Fprintf(os.Stderr, "  %s: layer %d, %d/%d assigned (%.0f%%)\n",
							name, layer, assigned, total, 100*float64(assigned)/float64(total))
					}
				}
			}
			ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Progress: progress, Parallelism: *parFlag})
			if err != nil {
				errs[i] = fmt.Errorf("build %s: %w", name, err)
				return
			}
			// The paper experiments reproduce the unpruned evaluation
			// procedure of Section 3.2 — Table 1's records/layers counts
			// are defined by that walk. Bound-based pruning returns the
			// same results but fewer evaluations, so it would silently
			// deflate every reproduced number; -query-scaling measures its
			// effect separately.
			ix.SetPruningMode(core.PruneNothing)
			fmt.Printf("built %-12s n=%d layers=%d in %v\n", name, n, ix.NumLayers(), time.Since(start).Round(time.Millisecond))
			sets[i] = &testSet{name: name, dist: dist, dim: dim, ix: ix, n: n}
		}(i, s.name, s.dist, s.dim)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println()
	return sets
}

// writeTSV dumps a series to -out, if requested.
func writeTSV(name string, header []string, rows [][]float64) {
	if *outFlag == "" {
		return
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, "\t") + "\n")
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = fmt.Sprintf("%g", v)
		}
		b.WriteString(strings.Join(parts, "\t") + "\n")
	}
	path := fmt.Sprintf("%s/%s.tsv", *outFlag, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
}

// ---------------------------------------------------------------- fig8

// fig8 reports the density distribution of points across layers.
func fig8(sets []*testSet) {
	fmt.Println("=== Figure 8: density distribution of points across Onion layers ===")
	fmt.Println("(percentage of the data set per layer; summary statistics below)")
	for _, s := range sets {
		sizes := s.ix.LayerSizes()
		total := float64(s.n)
		rows := make([][]float64, len(sizes))
		var maxPct float64
		for k, sz := range sizes {
			pct := 100 * float64(sz) / total
			rows[k] = []float64{float64(k + 1), float64(sz), pct}
			if pct > maxPct {
				maxPct = pct
			}
		}
		writeTSV("fig8_"+slug(s.name), []string{"layer", "records", "percent"}, rows)
		med := medianLayer(sizes)
		fmt.Printf("%-12s layers=%4d  largest layer=%.3f%%  median-mass layer=%d  mean layer size=%.1f\n",
			s.name, len(sizes), maxPct, med, total/float64(len(sizes)))
		if *plotFlag {
			fmt.Print(histogramPlot("  data mass by layer depth — "+s.name, sizes, s.n, 16, 50))
		}
	}
	fmt.Println()
}

func slug(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, " ", "_"))
}

// medianLayer returns the layer index at which half the data mass has
// been accumulated (outermost first).
func medianLayer(sizes []int) int {
	total := 0
	for _, s := range sizes {
		total += s
	}
	acc := 0
	for k, s := range sizes {
		acc += s
		if acc*2 >= total {
			return k + 1
		}
	}
	return len(sizes)
}

// ------------------------------------------------------- table1 / fig9

// sweep holds averaged per-N measurements for one test set.
type sweep struct {
	ns      []int
	records []float64 // avg records evaluated at ns[i]
	layers  []float64 // avg layers accessed at ns[i]
}

// sweepNs are the N values measured; they include the paper's sampled
// rows (Table 1) and enough intermediate points to draw Figure 9.
func sweepNs() []int {
	set := map[int]bool{}
	for _, v := range []int{1, 10, 50, 100, 500, 1000} {
		set[v] = true
	}
	for v := 100; v <= 1000; v += 100 {
		set[v] = true
	}
	for v := 25; v < 100; v += 25 {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func runSweeps(sets []*testSet, queries int) map[string]*sweep {
	fmt.Println("=== query sweep: average records evaluated / layers accessed ===")
	ns := sweepNs()
	out := make(map[string]*sweep, len(sets))
	for _, s := range sets {
		start := time.Now()
		ws := workload.QueryWeights(queries, s.dim, *seedFlag+77)
		sw := &sweep{ns: ns, records: make([]float64, len(ns)), layers: make([]float64, len(ns))}
		maxN := ns[len(ns)-1]
		for _, w := range ws {
			// One progressive search per query captures every N at once:
			// stats after the N-th result are exactly a top-N query's.
			searcher := s.ix.NewSearcher(w, maxN)
			ni := 0
			for rank := 1; rank <= maxN && ni < len(ns); rank++ {
				if _, ok := searcher.Next(); !ok {
					break
				}
				for ni < len(ns) && ns[ni] == rank {
					st := searcher.Stats()
					sw.records[ni] += float64(st.RecordsEvaluated)
					sw.layers[ni] += float64(st.LayersAccessed)
					ni++
				}
			}
		}
		for i := range ns {
			sw.records[i] /= float64(len(ws))
			sw.layers[i] /= float64(len(ws))
		}
		out[s.name] = sw
		fmt.Printf("  swept %-12s (%d queries x top-%d) in %v\n", s.name, queries, maxN, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	return out
}

func table1(sets []*testSet, sweeps map[string]*sweep) {
	fmt.Println("=== Table 1: average records evaluated and layers accessed ===")
	fmt.Printf("%6s", "N")
	for _, s := range sets {
		fmt.Printf(" | %-10s %6s", s.name, "layers")
	}
	fmt.Println()
	for _, n := range []int{1, 10, 50, 100, 500, 1000} {
		fmt.Printf("%6d", n)
		for _, s := range sets {
			sw := sweeps[s.name]
			i := indexOf(sw.ns, n)
			fmt.Printf(" | %10.1f %6.1f", sw.records[i], sw.layers[i])
		}
		fmt.Println()
	}
	for _, s := range sets {
		sw := sweeps[s.name]
		rows := make([][]float64, len(sw.ns))
		for i, n := range sw.ns {
			rows[i] = []float64{float64(n), sw.records[i], sw.layers[i]}
		}
		writeTSV("table1_"+slug(s.name), []string{"N", "records", "layers"}, rows)
	}
	fmt.Println()
}

func fig9(sets []*testSet, sweeps map[string]*sweep) {
	fmt.Println("=== Figure 9: records evaluated / layers accessed vs N (series) ===")
	if *plotFlag {
		var recCurves, layCurves []series
		for _, s := range sets {
			sw := sweeps[s.name]
			xs := make([]float64, len(sw.ns))
			for i, n := range sw.ns {
				xs[i] = float64(n)
			}
			recCurves = append(recCurves, series{name: s.name, xs: xs, ys: sw.records})
			layCurves = append(layCurves, series{name: s.name, xs: xs, ys: sw.layers})
		}
		sortSeriesByName(recCurves)
		sortSeriesByName(layCurves)
		fmt.Print(asciiPlot("records evaluated vs N", "N", "records", recCurves, 64, 18, false))
		fmt.Println()
		fmt.Print(asciiPlot("layers accessed vs N", "N", "layers", layCurves, 64, 18, false))
		fmt.Println()
	}
	fmt.Printf("%6s", "N")
	for _, s := range sets {
		fmt.Printf(" | %-10s %6s", s.name, "layers")
	}
	fmt.Println()
	for _, n := range sweepNs() {
		fmt.Printf("%6d", n)
		for _, s := range sets {
			sw := sweeps[s.name]
			i := indexOf(sw.ns, n)
			fmt.Printf(" | %10.1f %6.1f", sw.records[i], sw.layers[i])
		}
		fmt.Println()
	}
	fmt.Println()
}

func table2(sets []*testSet, sweeps map[string]*sweep) {
	fmt.Println("=== Table 2: computational speedup vs sequential scan (multiples) ===")
	fmt.Printf("%6s", "N")
	for _, s := range sets {
		fmt.Printf(" | %10s", s.name)
	}
	fmt.Println()
	for _, n := range []int{1, 10, 100, 1000} {
		fmt.Printf("%6d", n)
		for _, s := range sets {
			sw := sweeps[s.name]
			i := indexOf(sw.ns, n)
			fmt.Printf(" | %10.0f", float64(s.n)/sw.records[i])
		}
		fmt.Println()
	}
	fmt.Println()
}

func fig10table3(sets []*testSet, sweeps map[string]*sweep, printFig, printTable bool) {
	// Eq. 2 I/O: each cost is storage.EstimateCost of the layers
	// accessed and records evaluated that the Table 1 sweep measured —
	// one seek per layer plus the pages those records fill at the
	// paper's 8·(d+1) bytes each. No file is written or read here.
	if printFig {
		fmt.Println("=== Figure 10: estimated disk I/O cost vs N (Eq. 2 weighting, random=8x) ===")
		fmt.Printf("%6s", "N")
		for _, s := range sets {
			fmt.Printf(" | %10s", s.name)
		}
		fmt.Printf(" |  (scan: 3D=%d, 4D=%d pages)\n", int(storage.ScanCost(sets[0].n, 3)), int(storage.ScanCost(sets[0].n, 4)))
	}
	costs := make(map[string][]float64)
	for _, s := range sets {
		sw := sweeps[s.name]
		cs := make([]float64, len(sw.ns))
		for i := range sw.ns {
			cs[i] = storage.EstimateCost(int(sw.layers[i]+0.5), int(sw.records[i]+0.5), s.dim)
		}
		costs[s.name] = cs
		rows := make([][]float64, len(sw.ns))
		for i, n := range sw.ns {
			rows[i] = []float64{float64(n), cs[i]}
		}
		writeTSV("fig10_"+slug(s.name), []string{"N", "io_cost"}, rows)
	}
	if printFig {
		for _, n := range sweepNs() {
			fmt.Printf("%6d", n)
			for _, s := range sets {
				i := indexOf(sweeps[s.name].ns, n)
				fmt.Printf(" | %10.1f", costs[s.name][i])
			}
			fmt.Println()
		}
		if *plotFlag {
			var curves []series
			for _, s := range sets {
				sw := sweeps[s.name]
				xs := make([]float64, len(sw.ns))
				for i, n := range sw.ns {
					xs[i] = float64(n)
				}
				curves = append(curves, series{name: s.name, xs: xs, ys: costs[s.name]})
			}
			sortSeriesByName(curves)
			fmt.Print(asciiPlot("estimated I/O cost vs N (Eq. 2)", "N", "cost", curves, 64, 18, false))
		}
		fmt.Println()
	}
	if printTable {
		fmt.Println("=== Table 3: I/O speedup vs sequential scan (multiples) ===")
		fmt.Printf("%6s", "N")
		for _, s := range sets {
			fmt.Printf(" | %10s", s.name)
		}
		fmt.Println()
		for _, n := range []int{1, 10, 100, 1000} {
			fmt.Printf("%6d", n)
			for _, s := range sets {
				i := indexOf(sweeps[s.name].ns, n)
				scan := storage.ScanCost(s.n, s.dim)
				fmt.Printf(" | %10.0f", scan/costs[s.name][i])
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

func indexOf(ns []int, n int) int {
	for i, v := range ns {
		if v == n {
			return i
		}
	}
	panic(fmt.Sprintf("N=%d not in sweep", n))
}

// ---------------------------------------------------------------- extras

// faginExp reproduces the Figure 2 comparison: Fagin's algorithm vs the
// Onion on a disk (ball) of points with the criterion x1+x2.
func faginExp(n, queries int) {
	fmt.Println("=== Figure 2: Fagin's algorithm vs Onion on a 2D disk of points ===")
	if n > 200_000 {
		n = 200_000 // FA's sorted lists dominate memory beyond this; the comparison is shape-invariant
	}
	pts := workload.Points(workload.Ball, n, 2, *seedFlag+5)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: *seedFlag})
	if err != nil {
		fatal(err)
	}
	fx, err := fagin.NewIndex(pts, nil)
	if err != nil {
		fatal(err)
	}
	ws := workload.QueryWeights(queries, 2, *seedFlag+6)
	fmt.Printf("%6s | %16s | %16s\n", "N", "Onion records", "Fagin objects")
	rows := [][]float64{}
	for _, topn := range []int{1, 10, 100} {
		var onionSum, faginSum float64
		for _, w := range ws {
			_, st, err := ix.TopN(w, topn)
			if err != nil {
				fatal(err)
			}
			onionSum += float64(st.RecordsEvaluated)
			_, fst, err := fx.TopN(w, topn)
			if err != nil {
				fatal(err)
			}
			faginSum += float64(fst.ObjectsSeen)
		}
		o, f := onionSum/float64(len(ws)), faginSum/float64(len(ws))
		fmt.Printf("%6d | %16.1f | %16.1f\n", topn, o, f)
		rows = append(rows, []float64{float64(topn), o, f})
	}
	writeTSV("fagin_vs_onion", []string{"N", "onion_records", "fagin_objects"}, rows)
	fmt.Println()
}

// shellsExp is the Section 6 ablation: on two clones of each test set
// with layer pruning on, a plain one against one with spherical-shell
// tables. Both access the same layers and return the same answers, so
// the shells' saving is exactly RecordsSkippedByShells; the run fails
// if the accounting disagrees.
func shellsExp(sets []*testSet, queries int) {
	fmt.Println("=== Figure 11 / Section 6: spherical-shell ablation (records evaluated) ===")
	fmt.Printf("%-12s | %6s | %12s | %12s | %12s | %6s\n", "test set", "N", "layers-only", "shells", "skipped", "ratio")
	for _, s := range sets {
		plainIx := s.ix.Clone()
		plainIx.SetShellPruning(false)
		plainIx.SetPruningMode(core.PruneAll)
		shellIx := s.ix.Clone()
		shellIx.SetShellPruning(true)
		shellIx.SetPruningMode(core.PruneAll)
		ws := workload.QueryWeights(queries, s.dim, *seedFlag+7)
		for _, topn := range []int{10, 100} {
			var plain, shelled, skipped float64
			for _, w := range ws {
				res, st, err := plainIx.TopN(w, topn)
				if err != nil {
					fatal(err)
				}
				res2, st2, err := shellIx.TopN(w, topn)
				if err != nil {
					fatal(err)
				}
				if !sameResults(res, res2) || st.RecordsEvaluated != st2.RecordsEvaluated+st2.RecordsSkippedByShells {
					fatal(fmt.Errorf("%s top-%d: shell pruning changed the answer or its accounting", s.name, topn))
				}
				plain += float64(st.RecordsEvaluated)
				shelled += float64(st2.RecordsEvaluated)
				skipped += float64(st2.RecordsSkippedByShells)
			}
			q := float64(len(ws))
			fmt.Printf("%-12s | %6d | %12.1f | %12.1f | %12.1f | %6.2f\n",
				s.name, topn, plain/q, shelled/q, skipped/q, shelled/plain)
		}
	}
	fmt.Println()
}

// decayExp checks the Section 5 claim that slower-decaying
// distributions spread into more layers.
func decayExp(n int) {
	fmt.Println("=== Section 5: tail decay rate vs number of layers (3D) ===")
	fmt.Printf("%-14s | %8s\n", "distribution", "layers")
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian, workload.Exponential, workload.GammaDist} {
		pts := workload.Points(dist, n, 3, *seedFlag+8)
		recs := make([]core.Record, n)
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{Seed: *seedFlag})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s | %8d\n", dist, ix.NumLayers())
	}
	fmt.Println()
}

// hierExp demonstrates Section 4: the parent Onion routes each linear
// criterion to the cluster that answers it.
func hierExp(n int) {
	fmt.Println("=== Section 4: hierarchical Onion (Figures 6-7 configuration) ===")
	if n > 200_000 {
		n = 200_000
	}
	// Five well-separated clusters around a circle; the black/white pair
	// of Figure 6 generalizes, and parent pruning becomes visible (a
	// criterion aligned with one cluster's direction skips the rest).
	const k = 5
	per := n / k
	groups := map[string][]core.Record{}
	names := []string{"black", "white", "red", "green", "blue"}
	id := uint64(1)
	for c := 0; c < k; c++ {
		ang := 2 * math.Pi * float64(c) / k
		cx, cy := 12*math.Cos(ang), 12*math.Sin(ang)
		pts := workload.Points(workload.Gaussian, per, 2, *seedFlag+9+int64(c))
		for _, p := range pts {
			groups[names[c]] = append(groups[names[c]], core.Record{ID: id, Vector: []float64{p[0] + cx, p[1] + cy}})
			id++
		}
	}
	h, err := hierarchy.Build(groups, core.Options{Seed: *seedFlag})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("children=%v parent records=%d (of %d total: %.2f%% overhead)\n",
		h.Labels(), h.Parent().Len(), h.Len(), 100*float64(h.Parent().Len())/float64(h.Len()))
	for _, q := range []struct {
		name string
		w    []float64
	}{
		{"L1 (+x direction)", []float64{1, 0.05}},
		{"L2 (+y direction)", []float64{0.05, 1}},
		{"L3 (diagonal)", []float64{1, 1}},
		{"L4 (-x direction)", []float64{-1, -0.05}},
	} {
		_, st, err := h.TopN(q.w, 10)
		if err != nil {
			fatal(err)
		}
		ex, est, err := h.TopNExhaustive(q.w, 10)
		if err != nil {
			fatal(err)
		}
		_ = ex
		fmt.Printf("%-34s children queried: pruned=%d exhaustive=%d  records: pruned=%d exhaustive=%d\n",
			q.name, st.ChildrenQueried, est.ChildrenQueried,
			st.Total().RecordsEvaluated, est.Total().RecordsEvaluated)
	}
	fmt.Println()
}
