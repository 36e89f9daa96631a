package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// tracer records the server process's spans in a traced run. All of
// them come from the benchmark's own code around calls into public
// functions: the handler, the WAL committer, the set-up calls, and a
// replay of sampled /v1/topn requests that times each serving stage and
// each onion layer on the live snapshot.
type tracer struct {
	log    *spanLog
	srv    *server.Server
	shadow *cache.Cache // replay-side cache fed the same keys as the server's

	// jobs feeds the replay worker. The buffer absorbs a burst of
	// sampled requests while one replay runs; when it is full the
	// sample is dropped and counted rather than slowing the handler.
	jobs    chan replayJob
	dropped atomic.Int64
	wg      sync.WaitGroup

	stopWatch chan struct{}
	watchDone chan struct{}

	mu       sync.Mutex
	crossAt  int64 // span-clock time the delta crossed the threshold, -1 = none
	crossLen int
	recent   []walkInput // replayed inputs, reused for the allocation count
}

// traceEvery samples one /v1/topn request in this many (by request ID)
// for a handler span and the stage replay; writes are all traced.
const traceEvery = 8

type replayJob struct {
	req   uint64
	body  []byte
	alloc chan<- allocResult // set for an allocation-count request instead
}

type walkInput struct {
	w []float64
	n int
}

type allocResult struct {
	BytesPerWalk float64 `json:"alloc_bytes_per_walk"`
	Walks        int     `json:"alloc_walks"`
}

// traceReport is what a traced server process leaves for the load
// process.
type traceReport struct {
	Spans []span `json:"spans"`
	// Dropped counts sampled requests not replayed because the replay
	// worker was behind.
	Dropped int64 `json:"replays_dropped"`
}

func newTracer() *tracer {
	return &tracer{
		log:       newSpanLog(),
		shadow:    cache.New(cacheBytes, 0),
		jobs:      make(chan replayJob, 256),
		stopWatch: make(chan struct{}),
		watchDone: make(chan struct{}),
		crossAt:   -1,
	}
}

// attach wraps the server's handler and starts the replay worker and
// the fold watcher.
func (t *tracer) attach(srv *server.Server, h http.Handler) http.Handler {
	t.srv = srv
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for j := range t.jobs {
			if j.alloc != nil {
				j.alloc <- t.measureAlloc()
				continue
			}
			t.replay(j)
		}
	}()
	go t.watchFolds()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/runtime", t.handleRuntime)
	mux.Handle("/", t.wrap(h))
	return mux
}

// wrap times srv.Handler().ServeHTTP for every request carrying a
// request ID and queues sampled /v1/topn bodies for replay.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
		var name string
		switch r.URL.Path {
		case "/v1/topn":
			name = "server.handler"
		case "/v1/insert", "/v1/delete":
			name = "server.write_handler"
		}
		if req == 0 || name == "" || (name == "server.handler" && req%traceEvery != 0) {
			next.ServeHTTP(w, r)
			return
		}
		var body []byte
		if name == "server.handler" {
			body, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		start := t.log.now()
		next.ServeHTTP(w, r)
		t.log.add(span{Name: name, Start: start, End: t.log.now(), Parent: -1, Req: req})
		if body != nil {
			select {
			case t.jobs <- replayJob{req: req, body: body}:
			default:
				t.dropped.Add(1)
			}
		}
	})
}

// replay feeds one sampled request body through the stages of the
// /v1/topn path on the current snapshot: JSON decode, a cache lookup,
// the onion walk with Searcher.Trace attached (one span per layer), and
// the JSON encode of the response.
func (t *tracer) replay(j replayJob) {
	local := make([]span, 0, 24)
	add := func(s span) int { local = append(local, s); return len(local) - 1 }
	now := t.log.now
	root := add(span{Name: "replay", Start: now(), Parent: -1, Req: j.req})

	t0 := now()
	var req server.TopNRequest
	dec := json.NewDecoder(bytes.NewReader(j.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.N <= 0 {
		return
	}
	add(span{Name: "server.decode", Start: t0, End: now(), Parent: root, Req: j.req})

	n := min(req.N, maxResults)
	key := core.WeightKey(req.Weights)
	t0 = now()
	_, _, hit := t.shadow.Get(key, n, 0)
	var hitN int64
	if hit {
		hitN = 1
	}
	add(span{Name: "cache.lookup", Start: t0, End: now(), Parent: root, Req: j.req, N: hitN})

	snap := t.srv.Snapshot()
	walk := add(span{Name: "core.walk", Start: now(), Parent: root, Req: j.req})
	sr, err := snap.NewSearcherChecked(req.Weights, n)
	if err != nil {
		return
	}
	prev := now()
	sr.Trace(func(ev core.TraceEvent) {
		if ev.Kind != core.TraceLayerEvaluated {
			return
		}
		tt := now()
		add(span{Name: "core.layer", Start: prev, End: tt, Parent: walk, Req: j.req, K: ev.Layer, N: int64(ev.Evaluated)})
		prev = tt
	})
	results := make([]core.Result, 0, min(n, snap.Len()))
	for {
		res, ok := sr.Next()
		if !ok {
			break
		}
		results = append(results, res)
	}
	st := sr.Stats()
	local[walk].End = now()
	local[walk].N = int64(st.RecordsEvaluated)
	add(span{Name: "core.delta", Start: local[walk].End, End: local[walk].End, Parent: walk, Req: j.req, N: int64(snap.DeltaLen())})
	if !hit {
		t.shadow.Put(key, 0, n, results, st)
	}

	t0 = now()
	rs := make([]server.ResultJSON, len(results))
	for i, res := range results {
		rs[i] = server.ResultJSON{ID: res.ID, Score: res.Score, Layer: res.Layer}
	}
	resp := server.TopNResponse{Results: rs, Stats: server.StatsJSON{
		RecordsEvaluated: st.RecordsEvaluated, LayersAccessed: st.LayersAccessed, LayersPruned: st.LayersPruned,
		RecordsSkippedByShells: st.RecordsSkippedByShells, ShellLayers: st.ShellLayers,
	}}
	json.NewEncoder(io.Discard).Encode(resp)
	add(span{Name: "server.encode", Start: t0, End: now(), Parent: root, Req: j.req})
	local[root].End = now()

	t.log.addTree(local)
	t.mu.Lock()
	if len(t.recent) < 256 {
		t.recent = append(t.recent, walkInput{w: req.Weights, n: n})
	}
	t.mu.Unlock()
}

// measureAlloc counts the bytes one walk allocates, as computeTopN
// runs it, over the replayed inputs; it runs on the replay worker, so
// queued replays finish first.
func (t *tracer) measureAlloc() allocResult {
	t.mu.Lock()
	inputs := append([]walkInput(nil), t.recent...)
	t.mu.Unlock()
	if len(inputs) == 0 {
		return allocResult{}
	}
	snap := t.srv.Snapshot()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, in := range inputs {
		sr, err := snap.NewSearcherChecked(in.w, in.n)
		if err != nil {
			continue
		}
		results := make([]core.Result, 0, min(in.n, snap.Len()))
		for {
			res, ok := sr.Next()
			if !ok {
				break
			}
			results = append(results, res)
		}
	}
	runtime.ReadMemStats(&b)
	return allocResult{BytesPerWalk: float64(b.TotalAlloc-a.TotalAlloc) / float64(len(inputs)), Walks: len(inputs)}
}

// runtimeSample holds the server process's Go runtime counters.
type runtimeSample struct {
	GCCycles   float64 `json:"gc_cycles"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	allocResult
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{GCCycles: val(s[0].Value), AllocBytes: val(s[1].Value), GCCPU: val(s[2].Value)}
}

// handleRuntime answers GET /bench/runtime[?alloc=1] with the runtime
// counters and, on request, the per-walk allocation count.
func (t *tracer) handleRuntime(w http.ResponseWriter, r *http.Request) {
	out := readRuntime()
	if r.URL.Query().Get("alloc") == "1" {
		ch := make(chan allocResult, 1)
		t.jobs <- replayJob{alloc: ch}
		out.allocResult = <-ch
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// noteDelta records the commit whose snapshot first holds a full delta
// buffer: the start of the next background fold.
func (t *tracer) noteDelta(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.crossAt < 0 && n >= deltaThreshold {
		t.crossAt, t.crossLen = t.log.now(), n
	}
}

// watchFolds polls the server's compactions counter and records one
// core.fold span per increment, from the threshold-crossing commit to
// the increment. compact_latency_ms covers only the swap of a finished
// fold, so the fold is timed from outside.
func (t *tracer) watchFolds() {
	defer close(t.watchDone)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	last := expvarInt(t.srv.Vars(), "compactions")
	for {
		select {
		case <-t.stopWatch:
			return
		case <-tick.C:
		}
		c := expvarInt(t.srv.Vars(), "compactions")
		if c == last {
			continue
		}
		last = c
		end := t.log.now()
		t.mu.Lock()
		if t.crossAt >= 0 {
			t.log.add(span{Name: "core.fold", Start: t.crossAt, End: end, Parent: -1, N: int64(t.crossLen)})
		}
		t.crossAt = -1
		if n := t.srv.Snapshot().DeltaLen(); n >= deltaThreshold {
			t.crossAt, t.crossLen = end, n // the next round starts at once
		}
		t.mu.Unlock()
	}
}

// finish stops the fold watcher and writes the report. The replay
// worker keeps serving allocation counts until stop.
func (t *tracer) finish(path string) error {
	close(t.stopWatch)
	<-t.watchDone
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	t.log.mu.Lock()
	err = json.NewEncoder(bw).Encode(traceReport{Spans: t.log.spans, Dropped: t.dropped.Load()})
	t.log.mu.Unlock()
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// stop ends the replay worker and waits for it.
func (t *tracer) stop() {
	close(t.jobs)
	t.wg.Wait()
}

// tracedCommitter times each group commit and watches the delta length
// of the snapshot it makes durable.
type tracedCommitter struct {
	inner wal.Committer
	tr    *tracer
}

func (c *tracedCommitter) CommitBatch(muts []wal.Mutation, next *core.Index) error {
	start := c.tr.log.now()
	err := c.inner.CommitBatch(muts, next)
	c.tr.log.add(span{Name: "wal.commit", Start: start, End: c.tr.log.now(), Parent: -1, N: int64(len(muts))})
	if err == nil {
		c.tr.noteDelta(next.DeltaLen())
	}
	return err
}
