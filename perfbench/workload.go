package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
)

const (
	dim = 3
	// recordBytes is one record's user payload: the ID and d attributes.
	recordBytes = 8 * (dim + 1)
	// conns is the closed-loop connection count: one per CPU of the
	// 2-vCPU reference machine.
	conns = 2
	// oracleEvery samples one read response in this many for the
	// oracle, up to oracleMax checked responses per phase.
	oracleEvery = 32
	oracleMax   = 256
	// readBlocks splits the measured read phase into sequential blocks.
	readBlocks = 10
	// The read workloads end with a write tail of tailBlocks blocks, each
	// tailBlock inserts then tailBlock deletes: enough acks per block for
	// a p99 with ten samples beyond it, while the delta buffer stays far
	// below the threshold, so no fold runs. The last block deletes
	// corpus records, which costs more, so its acks count in ingest_qps
	// but not in the write quantiles.
	tailBlocks = 21
	tailBlock  = 1024
	tailChunk  = 7
	// restarts is how many times the read workloads restart from the
	// persisted snapshot for recover_s.
	restarts = 15
	// restartChecks oracle-checks this many queries after a restart or
	// a write tail.
	restartChecks = 16
)

// readSpec describes a read workload.
type readSpec struct {
	dist    string
	n       int     // corpus records
	topN    int     // n of every /v1/topn request
	pool    int     // > 0: weights drawn Zipf(zipfS) from a pool this size; 0: every vector fresh
	zipfS   float64 // Zipf exponent of the pool draw
	rate    int     // measured operations per --seconds
	warmOps int     // unmeasured operations first, to fill the cache
	launch  int     // server launches for setup_s (the last one serves)
}

var readSpecs = map[string]readSpec{
	"topn-hot":  {dist: distGaussian, n: 100_000, topN: 10, pool: 4096, zipfS: 1.1, rate: 25000, warmOps: 8000, launch: 2},
	"topn-deep": {dist: distUniform, n: 100_000, topN: 100, rate: 3200, warmOps: 2000, launch: 2},
}

// durable-rw sizes.
const (
	durableN = 10_000
	// Every cycle runs on its own sub-seed: one set-up launch, killAfter
	// acked mutations, SIGKILL, one restart. The replay cost depends on
	// the data much more than on the machine, so recover_s takes many
	// cycles. The first writeCycles cycles go on with the writer and the
	// reader, so that each delta range has a median over 5 cycles; the
	// first drainCycles of them wait for the fold and drain the server.
	durableCycles = 7
	writeCycles   = 5
	drainCycles   = 2
	killAfter     = 64 // acked mutations in the log at SIGKILL
	// durableWrites crosses the default delta threshold once and then
	// writes a few more mutations, which the server journals while the
	// fold runs and replays onto the folded index.
	durableWrites = deltaThreshold + 8
	durableTopN   = 10
	// deltaRanges splits the writer's acks up to the threshold crossing
	// into ranges of equal delta length. Every ack publishes a copy of
	// the delta, so an ack costs more the longer the delta is; a range
	// is compared only with the same range of the other cycles. The
	// reader's queries are split by the delta length when each was sent,
	// plus one more range: the first foldReads reads sent after the
	// crossing, while the fold runs.
	deltaRanges = 2
	foldReads   = 1000
	readerPool  = 1 << 17 // fresh reader weight vectors; reused only past this many reads
)

// runner carries one run's state and results.
type runner struct {
	seed    int64
	seconds int
	trace   bool
	dir     string

	phases []phaseCount
	errs   []string // correctness failures; any makes the run incorrect
	e2e    map[string]float64
	layer  map[string]float64

	details map[string]any // per-block figures, printed with the header

	loopNo       uint64
	measureLoops map[uint64]bool // loop numbers of the measured read requests
	setups       [][]span        // set-up stages of every launch
	readyS       []float64
	rtt          map[uint64]int64 // traced: request ID → client round trip
	reports      []traceReport
	stats        []server.StatsJSON // of oracle-checked responses
	results      []int              // result counts of those responses

	ref     *serverProc // the reference server, once launched
	durable bool
	shape   refShape
	// The reference server's request bodies and every calibration, in
	// order.
	refOne, refRead [][]byte
	refWrite        []byte
	calibs          []calibration
}

type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

func (r *runner) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *runner) path(name string) string { return filepath.Join(r.dir, name) }

// reqID returns the request-ID function of a new loop: traced runs tag
// every request with a run-unique ID, untraced runs send none.
func (r *runner) reqID() func(i int) uint64 {
	r.loopNo++
	if !r.trace {
		return func(int) uint64 { return 0 }
	}
	base := r.loopNo << 32
	return func(i int) uint64 { return base | uint64(i+1) }
}

// record books a loop's outcome under a phase name and, in a traced
// run, its round trips by request ID.
func (r *runner) record(name string, lr *loopResult, id func(int) uint64) {
	r.phases = append(r.phases, phaseCount{Name: name, Attempted: len(lr.ops), Failed: lr.failed})
	if r.trace {
		for _, op := range lr.ops {
			if req := id(int(op.i)); op.ok && req%traceEvery == 0 {
				r.rtt[req] = op.ns
			}
		}
	}
}

// launchSetups starts the server n times with args and returns the
// last launch; the others are killed once ready. Every launch counts
// toward setup_s. argsFor(i) may vary the arguments per launch. With a
// phase, a calibration for it follows every launch.
func (r *runner) launchSetups(n int, phase string, argsFor func(i int) []string) (*serverProc, error) {
	var p *serverProc
	for i := 0; i < n; i++ {
		var err error
		if p, err = launch(r.path("server.log"), argsFor(i)...); err != nil {
			return nil, err
		}
		if phase != "" {
			if err := r.calibrate(phase); err != nil {
				return nil, err
			}
		}
		r.readyS = append(r.readyS, p.readyS)
		r.setups = append(r.setups, p.setup)
		if i < n-1 {
			p.kill()
		}
	}
	r.e2e["setup_s"] = median(append([]float64(nil), r.readyS...))
	return p, nil
}

// checkTopN oracle-checks the kept responses of a read loop.
func (r *runner) checkTopN(lr *loopResult, m *model, weights func(i int) []float64, n int) {
	for i, body := range lr.kept {
		got, st, err := decodeTopN(body)
		if err != nil {
			r.failf("op %d: %v", i, err)
			continue
		}
		if err := checkRanking(got, m.topN(weights(i), n)); err != nil {
			r.failf("oracle, phase %d op %d: %v", len(r.phases), i, err)
		}
		r.stats = append(r.stats, st)
		r.results = append(r.results, len(got))
	}
}

// checkQueries runs k fresh oracle-checked queries against p.
func (r *runner) checkQueries(name string, p *serverProc, m *model, k, n int) error {
	ws := genWeights(r.seed, streamCheck+uint64(len(r.phases))<<8, k, dim)
	bodies := make([][]byte, k)
	for i, w := range ws {
		bodies[i] = topnBody(w, n)
	}
	id := r.reqID()
	lr, err := runLoop(p.addr, 1, k, nil, func(i int, dst []byte) []byte {
		return appendRequest(dst, "POST", "/v1/topn", bodies[i], id(i))
	}, func(int) bool { return true })
	if err != nil {
		return err
	}
	r.phases = append(r.phases, phaseCount{Name: name, Attempted: len(lr.ops), Failed: lr.failed})
	r.checkTopN(lr, m, func(i int) []float64 { return ws[i] }, n)
	return nil
}

// gate compares the complete /v1/search ranking with the model of
// acked state: every acked insert present, every acked delete absent,
// every score bit-identical.
func (r *runner) gate(name string, p *serverProc, m *model, seed int64) error {
	w := genWeights(seed, streamGate, 1, dim)[0]
	h, err := dialHTTP(p.addr)
	if err != nil {
		return err
	}
	defer h.Close()
	got, err := h.search(w)
	pc := phaseCount{Name: name, Attempted: 1}
	if err != nil {
		pc.Failed = 1
		r.failf("%s: %v", name, err)
	} else if err := checkRanking(got, m.topN(w, 0)); err != nil {
		r.failf("%s: %v", name, err)
	}
	r.phases = append(r.phases, pc)
	return nil
}

// runWrites applies muts through one closed-loop writer and books the
// acked ones into m.
func (r *runner) runWrites(name string, addr string, muts []mutation, m *model) (*loopResult, error) {
	bodies := make([][]byte, len(muts))
	paths := make([]string, len(muts))
	for i, mu := range muts {
		if mu.Vec != nil {
			bodies[i], _ = json.Marshal(server.InsertRequest{Records: []server.RecordJSON{{ID: mu.ID, Vector: mu.Vec}}})
			paths[i] = "/v1/insert"
		} else {
			bodies[i], _ = json.Marshal(server.DeleteRequest{IDs: []uint64{mu.ID}})
			paths[i] = "/v1/delete"
		}
	}
	id := r.reqID()
	lr, err := runLoop(addr, 1, len(muts), nil, func(i int, dst []byte) []byte {
		return appendRequest(dst, "POST", paths[i], bodies[i], id(i))
	}, nil)
	if err != nil {
		return nil, err
	}
	for _, op := range lr.ops {
		if op.ok {
			m.apply(muts[int(op.i)])
		}
	}
	r.record(name, lr, id)
	return lr, nil
}

// serverCounters fetches /v1/metrics (traced runs only).
func (r *runner) serverCounters(p *serverProc) (map[string]any, error) {
	h, err := dialHTTP(p.addr)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	var out map[string]any
	return out, h.getJSON("/v1/metrics", &out)
}

func (r *runner) serverRuntime(p *serverProc, alloc bool) (runtimeSample, error) {
	h, err := dialHTTP(p.addr)
	if err != nil {
		return runtimeSample{}, err
	}
	defer h.Close()
	path := "/bench/runtime"
	if alloc {
		path += "?alloc=1"
	}
	var out runtimeSample
	return out, h.getJSON(path, &out)
}

// readReport loads a traced server's report once it has exited.
func (r *runner) readReport(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep traceReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return err
	}
	r.reports = append(r.reports, rep)
	return nil
}

// readWorkload runs topn-hot or topn-deep.
func (r *runner) readWorkload(spec readSpec) error {
	if err := r.calibrate(phaseSetup); err != nil {
		return err
	}
	corpus := genCorpus(r.seed, spec.dist, spec.n, dim)
	if err := writeCorpus(r.path("corpus.bin"), corpus); err != nil {
		return err
	}
	m := newModel(corpus)
	save := r.path("snapshot.onion")
	launches, lastReport := 0, ""
	serveArgs := func(extra ...string) []string {
		launches++
		if r.trace {
			lastReport = r.path(fmt.Sprintf("report-%d.json", launches))
			extra = append(extra, "-report", lastReport)
		}
		return extra
	}
	srv, err := r.launchSetups(spec.launch, phaseSetup, func(int) []string {
		return serveArgs("-corpus", r.path("corpus.bin"), "-save", save)
	})
	if err != nil {
		return err
	}
	servedReport := lastReport

	// Request bodies: a Zipf draw over a pre-encoded pool, or fresh
	// vectors, for the warm-up and the measured phase.
	ops := r.seconds * spec.rate
	var measW [][]float64
	var warmB, measB [][]byte
	if spec.pool > 0 {
		pool := genWeights(r.seed, streamPool, spec.pool, dim)
		poolB := make([][]byte, len(pool))
		for i, w := range pool {
			poolB[i] = topnBody(w, spec.topN)
		}
		draw := func(stream uint64, k int) ([][]float64, [][]byte) {
			z := newZipf(newRNG(r.seed, stream), spec.zipfS, spec.pool)
			ws, bs := make([][]float64, k), make([][]byte, k)
			for i := range ws {
				j := z.next()
				ws[i], bs[i] = pool[j], poolB[j]
			}
			return ws, bs
		}
		_, warmB = draw(streamZipfWarm, spec.warmOps)
		measW, measB = draw(streamZipfMeasure, ops)
	} else {
		encode := func(ws [][]float64) [][]byte {
			out := make([][]byte, len(ws))
			for i, w := range ws {
				out[i] = topnBody(w, spec.topN)
			}
			return out
		}
		measW = genWeights(r.seed, streamFresh, ops, dim)
		warmB, measB = encode(genWeights(r.seed, streamWarmFresh, spec.warmOps, dim)), encode(measW)
	}
	// The oracle checks a seeded sample of at most about oracleMax
	// responses.
	every := max(oracleEvery, ops/oracleMax)

	id := r.reqID()
	lr, err := runLoop(srv.addr, conns, len(warmB), nil, func(i int, dst []byte) []byte {
		return appendRequest(dst, "POST", "/v1/topn", warmB[i], id(i))
	}, nil)
	if err != nil {
		return err
	}
	r.record("warmup", lr, id)

	// The measured phase runs as readBlocks sequential blocks; each
	// end-to-end figure is the median over blocks, so a short stall of
	// the machine moves one block, not the result.
	mk, err := r.beginMeasure(srv)
	if err != nil {
		return err
	}
	id = r.reqID()
	r.measureLoops[r.loopNo] = true
	per := ops / readBlocks
	all := &loopResult{kept: map[int][]byte{}}
	if err := r.calibrate(phaseRead); err != nil {
		return err
	}
	var qps, p50, p99, cpu []float64
	for b := 0; b < readBlocks; b++ {
		off := b * per
		c0, err := cpuSeconds(srv.pid())
		if err != nil {
			return err
		}
		lr, err := runLoop(srv.addr, conns, per, nil, func(i int, dst []byte) []byte {
			return appendRequest(dst, "POST", "/v1/topn", measB[off+i], id(off+i))
		}, func(i int) bool { return sampled(r.seed, off+i, every) })
		if err != nil {
			return err
		}
		c1, err := cpuSeconds(srv.pid())
		if err != nil {
			return err
		}
		if err := r.calibrate(phaseRead); err != nil {
			return err
		}
		lat := lr.latMs()
		qps = append(qps, float64(lr.okCount())/lr.elapsed.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		cpu = append(cpu, (c1-c0)*1e6/float64(max(lr.okCount(), 1)))
		for _, op := range lr.ops {
			op.i += int32(off)
			all.ops = append(all.ops, op)
		}
		for i, body := range lr.kept {
			all.kept[off+i] = body
		}
		all.failed += lr.failed
	}
	r.record("measure", all, id)
	if _, err := r.endMeasure(srv, mk, all.okCount()); err != nil {
		return err
	}
	r.details["read_blocks"] = map[string][]float64{"qps": qps, "p50_ms": p50, "p99_ms": p99, "cpu_us_per_op": cpu}
	// Latency quantiles pool every measured request: the server's GC
	// runs about once per block, so per-block tails depend on how many
	// collections a block caught, while the pool holds many.
	lat := all.latMs()
	r.e2e["topn_qps"], r.e2e["topn_p50_ms"], r.e2e["topn_p99_ms"] = median(clone(qps)), quantile(lat, 0.5), quantile(lat, 0.99)
	r.e2e["cpu_us_per_op"] = median(clone(cpu))
	r.details["block_median_ms"] = []float64{median(clone(p50)), median(clone(p99))}
	r.checkTopN(all, m, func(i int) []float64 { return measW[i] }, spec.topN)

	// Drain and persist like onionserve -save-on-exit, before any write:
	// storage.Write stores layers only, so a snapshot taken with a
	// pending delta buffer would lose it.
	if err := srv.drain(); err != nil {
		return err
	}
	if r.e2e["peak_rss_mb"], err = peakRSSMB(srv.pid()); err != nil {
		return err
	}
	st, err := os.Stat(save)
	if err != nil {
		return err
	}
	r.e2e["space_amp"] = float64(st.Size()) / float64(len(m.live)*recordBytes)
	r.layer["storage.checkpoint_bytes"] = float64(st.Size())
	if err := srv.finish(); err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	if r.trace {
		if err := r.readReport(servedReport); err != nil {
			return err
		}
	}

	// Restart from the persisted snapshot (onionserve -index) a few
	// times; the last restart takes the write tail, then drains again.
	var rec []float64
	var rp *serverProc
	if err := r.calibrate(phaseRestart); err != nil {
		return err
	}
	for i := 0; i < restarts; i++ {
		if rp, err = launch(r.path("server.log"), serveArgs("-load", save)...); err != nil {
			return err
		}
		rec = append(rec, rp.readyS)
		r.layer["storage.load_s"] = stageSeconds(rp.setup, "storage.load")
		if i < restarts-1 {
			rp.kill()
		}
		if i%5 == 4 {
			if err := r.calibrate(phaseRestart); err != nil {
				return err
			}
		}
	}
	r.details["recover_s"] = rec
	r.e2e["recover_s"] = median(clone(rec))
	if err := r.checkQueries("restart-check", rp, m, restartChecks, spec.topN); err != nil {
		return err
	}
	// The write tail runs in chunks of tailChunk blocks, each after a
	// calibration; its time leaves the calibrations out.
	muts := genChurn(r.seed, corpus, tailBlocks, tailBlock)
	wl := &loopResult{}
	var tailS float64
	for b := 0; b < tailBlocks; b += tailChunk {
		if err := r.calibrate(phaseWrite); err != nil {
			return err
		}
		lo, hi := b*2*tailBlock, min(b+tailChunk, tailBlocks)*2*tailBlock
		chunk, err := r.runWrites("write-tail", rp.addr, muts[lo:hi], m)
		if err != nil {
			return err
		}
		for _, op := range chunk.ops {
			op.i += int32(lo)
			wl.ops = append(wl.ops, op)
		}
		wl.failed += chunk.failed
		tailS += chunk.elapsed.Seconds()
	}
	w50, w99 := blockQuantiles(wl, 2*tailBlock)
	r.details["write_blocks"] = map[string][]float64{"p50_ms": w50, "p99_ms": w99}
	var wlat []float64
	for _, op := range wl.ops {
		if op.ok && int(op.i) < (tailBlocks-1)*2*tailBlock {
			wlat = append(wlat, float64(op.ns)/1e6)
		}
	}
	r.e2e["write_p50_ms"], r.e2e["write_p99_ms"] = quantile(wlat, 0.5), quantile(clone(wlat), 0.99)
	r.details["write_block_median_ms"] = []float64{median(clone(w50[:tailBlocks-1])), median(clone(w99[:tailBlocks-1]))}
	drainStart := time.Now()
	if err := rp.drain(); err != nil {
		return err
	}
	r.e2e["ingest_qps"] = float64(wl.okCount()) / (tailS + time.Since(drainStart).Seconds())
	if err := r.calibrate(phaseWrite); err != nil {
		return err
	}
	if err := r.checkQueries("post-write-check", rp, m, restartChecks, spec.topN); err != nil {
		return err
	}
	if err := rp.finish(); err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	if r.trace {
		return r.readReport(lastReport)
	}
	return nil
}

// measureMark holds the counters read at the start of a measured phase.
type measureMark struct {
	cpu      float64
	counters map[string]any
	rt       runtimeSample
}

func (r *runner) beginMeasure(p *serverProc) (*measureMark, error) {
	mk := &measureMark{}
	var err error
	if r.trace {
		if mk.counters, err = r.serverCounters(p); err != nil {
			return nil, err
		}
		if mk.rt, err = r.serverRuntime(p, false); err != nil {
			return nil, err
		}
	}
	mk.cpu, err = cpuSeconds(p.pid())
	return mk, err
}

// endMeasure returns the server CPU per completed operation of the
// phase that began at mk and, in a traced run, books the counter and
// runtime deltas per operation.
func (r *runner) endMeasure(p *serverProc, mk *measureMark, ops int) (cpuPerOp float64, err error) {
	cpu, err := cpuSeconds(p.pid())
	if err != nil {
		return 0, err
	}
	cpuPerOp = (cpu - mk.cpu) * 1e6 / float64(max(ops, 1))
	if !r.trace {
		return cpuPerOp, nil
	}
	after, err := r.serverCounters(p)
	if err != nil {
		return 0, err
	}
	rt, err := r.serverRuntime(p, true)
	if err != nil {
		return 0, err
	}
	delta := func(key string) float64 { return num(after[key]) - num(mk.counters[key]) }
	q := max(delta("queries_served"), 1)
	lookups := max(delta("cache_hits")+delta("cache_misses")+delta("cache_coalesced"), 1)
	r.layer["server.rejected_per_kop"] = delta("queries_rejected") * 1000 / q
	r.layer["cache.hit_ratio"] = delta("cache_hits") / lookups
	r.layer["cache.coalesced_ratio"] = delta("cache_coalesced") / lookups
	r.layer["cache.evictions_per_query"] = delta("cache_evictions") / q
	kop := float64(max(ops, 1)) / 1000
	r.layer["runtime.gc_cycles_per_kop"] = (rt.GCCycles - mk.rt.GCCycles) / kop
	r.layer["runtime.alloc_bytes_per_op"] = (rt.AllocBytes - mk.rt.AllocBytes) / float64(max(ops, 1))
	if d := cpu - mk.cpu; d > 0 {
		r.layer["runtime.gc_cpu_share"] = (rt.GCCPU - mk.rt.GCCPU) / d
	}
	r.layer["core.alloc_bytes_per_query"] = rt.BytesPerWalk
	if w, ok := after["wal"].(map[string]any); ok {
		wb, _ := mk.counters["wal"].(map[string]any)
		recs := max(num(w["records"])-num(wb["records"]), 1)
		r.layer["wal.fsyncs_per_mutation"] = (num(w["fsyncs"]) - num(wb["fsyncs"])) / recs
		r.layer["wal.bytes_per_mutation"] = (num(w["bytes_written"]) - num(wb["bytes_written"])) / recs
		r.layer["wal.replayed_records"] = num(w["replayed_records"])
	}
	r.layer["core.folds"] = delta("compactions")
	return cpuPerOp, nil
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// cycleFigures are one durable-rw cycle's measurements. The per-range
// figures have deltaRanges entries for the writer and one more, the
// fold, for the reader. The whole-phase figures are measured only in
// the cycles that drain.
type cycleFigures struct {
	WriteP50  []float64 `json:"write_p50_ms"`
	WriteP99  []float64 `json:"write_p99_ms"`
	ReadQPS   []float64 `json:"topn_qps"`
	ReadP50   []float64 `json:"topn_p50_ms"`
	ReadP99   []float64 `json:"topn_p99_ms"`
	WritesS   float64   `json:"writes_s"` // first mutation to last ack
	Drained   bool      `json:"drained"`
	DrainS    float64   `json:"drain_s,omitempty"` // last ack to drained
	CPUPerOp  float64   `json:"cpu_us_per_op,omitempty"`
	IngestQPS float64   `json:"ingest_qps,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb,omitempty"`
	SpaceAmp  float64   `json:"space_amp,omitempty"`
}

// durableWorkload runs durable-rw's cycles. The writer's and the
// reader's figures are taken per delta range: each range's median over
// the write cycles, then the mean over the ranges (for topn_qps the
// harmonic mean, the reader's rate had it sent as many reads in every
// range). recover_s and setup_s are medians over every cycle. The
// whole-phase figures are medians over the cycles that drain.
func (r *runner) durableWorkload() error {
	var figs []*cycleFigures
	var rec, load, replay []float64
	for c := 0; c < durableCycles; c++ {
		if err := r.calibrate(""); err != nil {
			return err
		}
		seed := r.seed*durableCycles + int64(c)
		rc, err := r.recoverCycle(c, seed)
		if err != nil {
			return err
		}
		rec, load, replay = append(rec, rc.rec), append(load, rc.load), append(replay, rc.replay)
		if c >= writeCycles {
			rc.srv.kill()
			continue
		}
		f, err := r.writeCycle(rc, seed, c < drainCycles)
		if err != nil {
			return err
		}
		figs = append(figs, f)
		if err := r.calibrate(""); err != nil {
			return err
		}
	}
	r.details["cycles"] = figs
	r.details["recover_s"] = rec
	byCycle := func(figs []*cycleFigures, get func(*cycleFigures) float64) float64 {
		vs := make([]float64, len(figs))
		for c, f := range figs {
			vs[c] = get(f)
		}
		return median(vs)
	}
	// byRange returns the per-range medians over the write cycles.
	byRange := func(get func(*cycleFigures) []float64) []float64 {
		out := make([]float64, len(get(figs[0])))
		for j := range out {
			out[j] = byCycle(figs, func(f *cycleFigures) float64 { return get(f)[j] })
		}
		return out
	}
	inv := func(xs []float64) []float64 {
		for i, x := range xs {
			xs[i] = 1 / x
		}
		return xs
	}
	drained := figs[:drainCycles]
	r.e2e["setup_s"] = median(clone(r.readyS))
	r.e2e["recover_s"] = median(clone(rec))
	r.e2e["write_p50_ms"] = mean(byRange(func(f *cycleFigures) []float64 { return f.WriteP50 }))
	r.e2e["write_p99_ms"] = mean(byRange(func(f *cycleFigures) []float64 { return f.WriteP99 }))
	r.e2e["topn_qps"] = 1 / mean(inv(byRange(func(f *cycleFigures) []float64 { return f.ReadQPS })))
	r.e2e["topn_p50_ms"] = mean(byRange(func(f *cycleFigures) []float64 { return f.ReadP50 }))
	r.e2e["topn_p99_ms"] = mean(byRange(func(f *cycleFigures) []float64 { return f.ReadP99 }))
	r.e2e["cpu_us_per_op"] = byCycle(drained, func(f *cycleFigures) float64 { return f.CPUPerOp })
	r.e2e["ingest_qps"] = byCycle(drained, func(f *cycleFigures) float64 { return f.IngestQPS })
	r.e2e["peak_rss_mb"] = byCycle(drained, func(f *cycleFigures) float64 { return f.PeakRSSMB })
	r.e2e["space_amp"] = byCycle(drained, func(f *cycleFigures) float64 { return f.SpaceAmp })
	r.layer["storage.load_s"], r.layer["wal.replay_s"] = median(load), median(replay)
	return nil
}

// recovered is a durable-rw cycle after its crash recovery: the
// restarted server, the model of its acked state and the rest of the
// cycle's inputs.
type recovered struct {
	srv         *serverProc
	m           *model
	muts        []mutation // phase 2's mutations
	dir, report string
	// The restart's launch to ready, and in a traced run the
	// storage.LoadV2Bytes and log replay parts of its wal.Open.
	rec, load, replay float64
}

// recoverCycle runs phase 1 of a durable-rw cycle on inputs drawn from
// seed: set-up, killAfter acked mutations, SIGKILL, restart, gate.
func (r *runner) recoverCycle(c int, seed int64) (*recovered, error) {
	corpus := genCorpus(seed, distGaussian, durableN, dim)
	corpusPath := r.path(fmt.Sprintf("corpus-%d.bin", c))
	if err := writeCorpus(corpusPath, corpus); err != nil {
		return nil, err
	}
	m := newModel(corpus)
	muts := genMutations(seed, corpus, killAfter+durableWrites)
	rc := &recovered{m: m, muts: muts[killAfter:], dir: r.path(fmt.Sprintf("data-%d", c))}
	srv, err := r.launchSetups(1, "", func(int) []string {
		return []string{"-corpus", corpusPath, "-data-dir", rc.dir}
	})
	if err != nil {
		return nil, err
	}
	if _, err := r.runWrites("pre-kill-writes", srv.addr, muts[:killAfter], m); err != nil {
		return nil, err
	}
	srv.kill()
	args := []string{"-data-dir", rc.dir}
	if r.trace {
		rc.report = r.path(fmt.Sprintf("report-restart-%d.json", c))
		args = append(args, "-report", rc.report)
		// wal.Open decodes the checkpoint and then replays the log. A
		// traced run times the decode on the same bytes here, in the load
		// process, so that the restart does only what an untraced one
		// does.
		if rc.load, err = timeLoadV2(newestCheckpoint(rc.dir)); err != nil {
			return nil, err
		}
	}
	if rc.srv, err = launch(r.path("server.log"), args...); err != nil {
		return nil, err
	}
	rc.rec = rc.srv.readyS
	rc.replay = max(stageSeconds(rc.srv.setup, "wal.open")-rc.load, 0)
	return rc, r.gate("gate-after-kill", rc.srv, m, seed)
}

// timeLoadV2 returns the seconds storage.LoadV2Bytes takes to decode
// the checkpoint at path.
func timeLoadV2(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, _, err := storage.LoadV2Bytes(data, serveOptions()); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// writeCycle runs phase 2 of a durable-rw cycle: one writer and one
// reader until the reader has sent foldReads reads after the last ack.
// With drain, the server drains (fold and checkpoint) meanwhile and is
// gated after; otherwise it is gated while the fold runs and killed.
func (r *runner) writeCycle(rc *recovered, seed int64, drain bool) (*cycleFigures, error) {
	srv, m, dir := rc.srv, rc.m, rc.dir
	readW := genWeights(seed, streamReader, readerPool, dim)
	readB := make([][]byte, len(readW))
	for i, w := range readW {
		readB[i] = topnBody(w, durableTopN)
	}
	mk, err := r.beginMeasure(srv)
	if err != nil {
		return nil, err
	}
	var stop, readerExited atomic.Bool
	var sent atomic.Int64 // reads sent so far
	readID := r.reqID()
	r.measureLoops[r.loopNo] = true
	type res struct {
		lr  *loopResult
		err error
	}
	readerDone := make(chan res, 1)
	go func() {
		lr, err := runLoop(srv.addr, 1, -1, &stop, func(i int, dst []byte) []byte {
			sent.Store(int64(i) + 1)
			return appendRequest(dst, "POST", "/v1/topn", readB[i%len(readB)], readID(i))
		}, func(i int) bool { return sampled(seed, i, oracleEvery) })
		readerExited.Store(true)
		readerDone <- res{lr, err}
	}()
	wl, werr := r.runWrites("writes", srv.addr, rc.muts, m)
	var drained time.Time
	if werr == nil {
		// The crossing came before the last ack, so foldReads more reads
		// from here cover the first foldReads after the crossing.
		until := sent.Load() + foldReads
		if drain {
			werr = srv.drain()
			drained = time.Now()
		}
		for werr == nil && sent.Load() < until && !readerExited.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	rd := <-readerDone
	if werr != nil {
		return nil, werr
	}
	if rd.err != nil {
		return nil, rd.err
	}
	r.record("reads", rd.lr, readID)
	for _, body := range rd.lr.kept {
		// Concurrent writes move the answer under the reader, so these
		// responses give work counts only; the gates check correctness.
		if got, st, err := decodeTopN(body); err == nil {
			r.stats, r.results = append(r.stats, st), append(r.results, len(got))
		}
	}
	lastAck := wl.start.Add(time.Duration(wl.ops[len(wl.ops)-1].end()))
	f := &cycleFigures{WritesS: lastAck.Sub(wl.start).Seconds(), Drained: drain}
	f.splitByDelta(wl, rd.lr)
	if !drain {
		if err := r.gate("gate-during-fold", srv, m, seed); err != nil {
			return nil, err
		}
		srv.kill()
		return f, nil
	}
	f.DrainS = drained.Sub(lastAck).Seconds()
	f.IngestQPS = float64(wl.okCount()) / drained.Sub(wl.start).Seconds()
	if f.PeakRSSMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	if f.CPUPerOp, err = r.endMeasure(srv, mk, rd.lr.okCount()+wl.okCount()); err != nil {
		return nil, err
	}
	used, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	f.SpaceAmp = float64(used) / float64(len(m.live)*recordBytes)
	if cp := newestCheckpoint(dir); cp != "" {
		if st, err := os.Stat(cp); err == nil {
			r.layer["storage.checkpoint_bytes"] = float64(st.Size())
		}
	}
	if err := r.gate("gate-after-drain", srv, m, seed); err != nil {
		return nil, err
	}
	if err := srv.finish(); err != nil {
		return nil, fmt.Errorf("server exit: %w", err)
	}
	if r.trace {
		err = r.readReport(rc.report)
	}
	return f, err
}

// splitByDelta books the writer's and the reader's latencies by delta
// range. The writer's ack i leaves a delta of i+1 records, so its range
// is i / (deltaThreshold/deltaRanges); acks past the crossing, made
// while the fold runs, count in no range. Range j ends when the ack
// that completes it returns; the last one ends at the crossing. A read
// belongs to the range in which it was sent; the first foldReads reads
// sent after the crossing form the fold range.
func (f *cycleFigures) splitByDelta(wl, rl *loopResult) {
	per := deltaThreshold / deltaRanges
	ends := make([]time.Time, deltaRanges)
	wlat := make([][]float64, deltaRanges)
	for _, op := range wl.ops {
		i := int(op.i)
		if i >= deltaThreshold {
			continue
		}
		if op.ok {
			wlat[i/per] = append(wlat[i/per], float64(op.ns)/1e6)
		}
		if (i+1)%per == 0 {
			ends[i/per] = wl.start.Add(time.Duration(op.end()))
		}
	}
	for _, l := range wlat {
		f.WriteP50, f.WriteP99 = append(f.WriteP50, quantile(l, 0.5)), append(f.WriteP99, quantile(l, 0.99))
	}
	// The reader has one connection, so its operations are in send order.
	rlat := make([][]float64, deltaRanges+1)
	from := make([]time.Time, deltaRanges+2)
	from[0] = rl.start
	copy(from[1:], ends)
	for _, op := range rl.ops {
		sent := rl.start.Add(time.Duration(op.t))
		j := sort.Search(deltaRanges, func(k int) bool { return sent.Before(ends[k]) })
		if j == deltaRanges {
			if len(rlat[j]) == foldReads {
				break
			}
			from[j+1] = rl.start.Add(time.Duration(op.end()))
		}
		if op.ok {
			rlat[j] = append(rlat[j], float64(op.ns)/1e6)
		}
	}
	for j, l := range rlat {
		f.ReadQPS = append(f.ReadQPS, float64(len(l))/from[j+1].Sub(from[j]).Seconds())
		f.ReadP50, f.ReadP99 = append(f.ReadP50, quantile(l, 0.5)), append(f.ReadP99, quantile(l, 0.99))
	}
}

// blockQuantiles splits lr's operations by index into consecutive
// blocks of size and returns the p50 and p99 latency (ms) of the
// successful operations of each block.
func blockQuantiles(lr *loopResult, size int) (p50, p99 []float64) {
	var lat [][]float64
	for _, op := range lr.ops {
		b := int(op.i) / size
		for len(lat) <= b {
			lat = append(lat, nil)
		}
		if op.ok {
			lat[b] = append(lat[b], float64(op.ns)/1e6)
		}
	}
	for _, l := range lat {
		p50, p99 = append(p50, quantile(l, 0.5)), append(p99, quantile(l, 0.99))
	}
	return p50, p99
}
