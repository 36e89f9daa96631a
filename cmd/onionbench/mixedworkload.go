package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/workload"
)

// Mixed read/write load mode. `onionbench -mixed-workload` stands up an
// in-process onionserve instance over a synthetic corpus and drives it
// with concurrent readers plus one sustained mutation stream — the
// write path's acceptance harness. Three things are measured and gated:
//
//   - mutation throughput and publish-to-visible latency: the time from
//     submitting a mutation to the mutated record being observable in a
//     freshly loaded snapshot (the server publishes before acking, so
//     the ack bounds visibility; the harness re-checks anyway and any
//     acked-but-stale read is a hard failure);
//   - read availability under writes: reader throughput/latency while
//     the delta buffer absorbs mutations and background compaction
//     folds it;
//   - exactness: sampled snapshots mid-run answer bit-identically to a
//     brute-force total order, and the final snapshot answers
//     bit-identically to an index rebuilt from scratch over its
//     records. Any mismatch exits non-zero.
//
// The summary is written to -mixed-out (BENCH_write.json).

// mixedReport is the JSON emitted to -mixed-out.
type mixedReport struct {
	Kind           string  `json:"kind"` // "onion-mixed-workload"
	Generated      string  `json:"generated"`
	Points         int     `json:"points"`
	Dim            int     `json:"dim"`
	DeltaThreshold int     `json:"delta_threshold"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Readers        int     `json:"readers"`
	TargetMutRate  int     `json:"target_mutations_per_s"`
	DurationS      float64 `json:"duration_s"`

	Inserts      int64   `json:"inserts"`
	Deletes      int64   `json:"deletes"`
	MutationQPS  float64 `json:"mutation_qps"`
	StaleAtAck   int64   `json:"stale_reads_after_ack"` // must be 0
	PublishMS    quants  `json:"publish_to_visible_ms"`
	ReaderOps    int64   `json:"reader_queries"`
	ReaderErrors int64   `json:"reader_errors"`
	ReaderQPS    float64 `json:"reader_qps"`
	ReaderMS     quants  `json:"reader_latency_ms"`

	OracleSamples  int             `json:"oracle_samples"`  // mid-run brute-force checks
	RebuildWeights int             `json:"rebuild_weights"` // final rebuild-oracle weights
	BitIdentical   bool            `json:"bit_identical"`   // every check passed
	FinalRecords   int             `json:"final_records"`
	FinalHasDelta  bool            `json:"final_has_delta"`
	RebuildSeconds float64         `json:"rebuild_seconds"`
	ServerMetrics  json.RawMessage `json:"server_metrics,omitempty"`
}

type quants struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func summarize(lats []time.Duration) quants {
	if len(lats) == 0 {
		return quants{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	pct := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	return quants{
		P50:  ms(pct(0.50)),
		P90:  ms(pct(0.90)),
		P99:  ms(pct(0.99)),
		Max:  ms(lats[len(lats)-1]),
		Mean: ms(sum / time.Duration(len(lats))),
	}
}

// bruteTopN is the total-order oracle: every record scored, ranked
// score-descending then ID-ascending. n is small; selection is linear.
func bruteTopN(recs []core.Record, w []float64, n int) []core.Result {
	top := make([]core.Result, 0, n)
	for _, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		if len(top) == n && !topk.ResultGreater(s, r.ID, top[n-1].Score, top[n-1].ID) {
			continue
		}
		i := len(top)
		if len(top) < n {
			top = append(top, core.Result{})
		} else {
			i = n - 1
		}
		for i > 0 && topk.ResultGreater(s, r.ID, top[i-1].Score, top[i-1].ID) {
			top[i] = top[i-1]
			i--
		}
		top[i] = core.Result{ID: r.ID, Score: s}
	}
	return top
}

func sameRankingIDScore(got, want []core.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// buildMixedCorpus builds the mixed workload's starting index: n
// 3D Gaussian points with IDs 1..n.
func buildMixedCorpus(n int) *core.Index {
	start := time.Now()
	pts := workload.Points(workload.Gaussian, n, 3, *seedFlag)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: *seedFlag})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built corpus: 3D Gaussian n=%d, %d layers, in %v\n",
		n, ix.NumLayers(), time.Since(start).Round(time.Millisecond))
	return ix
}

func mixedWorkload(n, readers, rate int, dur time.Duration, threshold int, outPath string) {
	const dim = 3
	ix := buildMixedCorpus(n)
	srv := server.New(ix, server.Config{DeltaThreshold: threshold})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()

	fmt.Printf("=== mixed-workload: n=%d dim=%d readers=%d rate=%d/s dur=%v delta-threshold=%d ===\n",
		n, dim, readers, rate, dur, threshold)

	weights := workload.QueryWeights(256, dim, *seedFlag+321)
	deadline := time.Now().Add(dur)
	var readerOps, readerErrs atomic.Int64
	var oracleSamples atomic.Int64
	var mismatches atomic.Int64

	var wg sync.WaitGroup
	readerLats := make([][]time.Duration, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 4096)
			for i := g; time.Now().Before(deadline); i++ {
				w := weights[i%len(weights)]
				t0 := time.Now()
				res, _, err := srv.Snapshot().TopN(w, 10)
				if err != nil || len(res) == 0 {
					readerErrs.Add(1)
					continue
				}
				lats = append(lats, time.Since(t0))
				readerOps.Add(1)
			}
			readerLats[g] = lats
		}(g)
	}

	// Oracle sampler: periodically pin a snapshot mid-stream and replay
	// one query against a brute-force scan of that same snapshot's
	// records. Snapshots are immutable, so this races nothing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(*seedFlag + 99))
		for time.Now().Before(deadline) {
			snap := srv.Snapshot()
			w := weights[rng.Intn(len(weights))]
			want := bruteTopN(snap.Records(), w, 10)
			got, _, err := snap.TopN(w, 10)
			if err != nil || !sameRankingIDScore(got, want) {
				mismatches.Add(1)
				fmt.Fprintf(os.Stderr, "mixed-workload: sampled snapshot diverged from brute force (err=%v)\n", err)
			}
			oracleSamples.Add(1)
			time.Sleep(500 * time.Millisecond)
		}
	}()

	// The mutation stream: one writer (matching the single-mutator
	// server design), 2:1 insert:delete so the corpus grows slowly, each
	// op timed from submission to proven visibility in a fresh snapshot.
	rng := rand.New(rand.NewSource(*seedFlag + 7))
	live := make([]uint64, n)
	for i := range live {
		live[i] = uint64(i + 1)
	}
	nextID := uint64(n + 1)
	var inserts, deletes, stale int64
	mutLats := make([]time.Duration, 0, 1<<16)
	ctx := context.Background()
	var interval time.Duration
	if rate > 0 {
		interval = time.Second / time.Duration(rate)
	}
	start := time.Now()
	for next := start; time.Now().Before(deadline); {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		op := rng.Intn(3)
		t0 := time.Now()
		if op < 2 || len(live) == 0 {
			vec := make([]float64, dim)
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			id := nextID
			nextID++
			if err := srv.Insert(ctx, []core.Record{{ID: id, Vector: vec}}); err != nil {
				fatal(fmt.Errorf("mixed-workload: insert %d: %w", id, err))
			}
			lat := time.Since(t0)
			if _, ok := srv.Snapshot().LayerOf(id); !ok {
				stale++
			}
			mutLats = append(mutLats, lat)
			live = append(live, id)
			inserts++
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := srv.Delete(ctx, []uint64{id}); err != nil {
				fatal(fmt.Errorf("mixed-workload: delete %d: %w", id, err))
			}
			lat := time.Since(t0)
			if _, ok := srv.Snapshot().LayerOf(id); ok {
				stale++
			}
			mutLats = append(mutLats, lat)
			deletes++
		}
	}
	elapsed := time.Since(start)
	wg.Wait()

	// Final gate: the served snapshot must answer bit-identically to an
	// index rebuilt from scratch over the exact same records.
	snap := srv.Snapshot()
	fmt.Printf("mutations done: %d inserts, %d deletes in %.1fs (%.0f/s); rebuilding %d records for the oracle...\n",
		inserts, deletes, elapsed.Seconds(), float64(inserts+deletes)/elapsed.Seconds(), snap.Len())
	tr := time.Now()
	rebuilt, err := core.Build(snap.Records(), core.Options{Seed: *seedFlag, Parallelism: *parFlag})
	if err != nil {
		fatal(fmt.Errorf("mixed-workload: rebuild oracle: %w", err))
	}
	rebuildS := time.Since(tr).Seconds()
	oracleWs := workload.QueryWeights(16, dim, *seedFlag+654)
	for _, w := range oracleWs {
		for _, k := range []int{1, 10, 100} {
			got, _, err1 := snap.TopN(w, k)
			want, _, err2 := rebuilt.TopN(w, k)
			if err1 != nil || err2 != nil || !sameRankingIDScore(got, want) {
				mismatches.Add(1)
				fmt.Fprintf(os.Stderr, "mixed-workload: final snapshot diverged from rebuild at top-%d (err1=%v err2=%v)\n", k, err1, err2)
			}
		}
	}

	var allReads []time.Duration
	for _, l := range readerLats {
		allReads = append(allReads, l...)
	}
	rep := mixedReport{
		Kind:           "onion-mixed-workload",
		Generated:      time.Now().UTC().Format(time.RFC3339),
		Points:         n,
		Dim:            dim,
		DeltaThreshold: threshold,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Readers:        readers,
		TargetMutRate:  rate,
		DurationS:      elapsed.Seconds(),
		Inserts:        inserts,
		Deletes:        deletes,
		MutationQPS:    float64(inserts+deletes) / elapsed.Seconds(),
		StaleAtAck:     stale,
		PublishMS:      summarize(mutLats),
		ReaderOps:      readerOps.Load(),
		ReaderErrors:   readerErrs.Load(),
		ReaderQPS:      float64(readerOps.Load()) / elapsed.Seconds(),
		ReaderMS:       summarize(allReads),
		OracleSamples:  int(oracleSamples.Load()),
		RebuildWeights: len(oracleWs),
		BitIdentical:   mismatches.Load() == 0,
		FinalRecords:   snap.Len(),
		FinalHasDelta:  snap.HasDelta(),
		RebuildSeconds: rebuildS,
	}
	rep.ServerMetrics = json.RawMessage(srv.Vars().String())

	fmt.Printf("mutations: %d (%.0f/s)  publish-to-visible ms: p50=%.3f p99=%.3f max=%.3f  stale-after-ack=%d\n",
		inserts+deletes, rep.MutationQPS, rep.PublishMS.P50, rep.PublishMS.P99, rep.PublishMS.Max, stale)
	fmt.Printf("reads: %d (%.0f/s, %d errors)  latency ms: p50=%.3f p99=%.3f\n",
		rep.ReaderOps, rep.ReaderQPS, rep.ReaderErrors, rep.ReaderMS.P50, rep.ReaderMS.P99)
	fmt.Printf("oracle: %d sampled brute-force checks, %d rebuild weights, bit_identical=%v (rebuild took %.1fs)\n",
		rep.OracleSamples, rep.RebuildWeights, rep.BitIdentical, rebuildS)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
	// The write path must also keep up: a run that acked twice the fold
	// threshold has to have published a fold, and no fold may fail.
	folds := srv.Vars().Get("compactions").(*expvar.Int).Value()
	foldErrs := srv.Vars().Get("compaction_errors").(*expvar.Int).Value()
	fmt.Printf("folds: %d published, %d failed\n", folds, foldErrs)
	foldAt := threshold
	if foldAt == 0 {
		foldAt = server.DefaultDeltaThreshold
	}
	if inserts+deletes >= 2*int64(foldAt) && folds == 0 {
		fatal(fmt.Errorf("mixed-workload: %d acked mutations against a fold threshold of %d, but no fold completed", inserts+deletes, foldAt))
	}
	if foldErrs > 0 {
		fatal(fmt.Errorf("mixed-workload: %d folds failed", foldErrs))
	}
	if stale != 0 {
		fatal(fmt.Errorf("mixed-workload: %d acked mutations were not visible in the next snapshot", stale))
	}
	if mismatches.Load() != 0 {
		fatal(fmt.Errorf("mixed-workload: %d oracle mismatches", mismatches.Load()))
	}
}
