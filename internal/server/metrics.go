package server

import (
	"expvar"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Runtime telemetry. Counters and histograms live in a per-server
// expvar.Map rather than the process-global expvar registry so that
// multiple servers (tests, embedded use) never collide; cmd/onionserve
// additionally publishes the map globally for /debug/vars scrapers.
// Latency histograms are telemetry.Histogram — the same type the WAL
// manager uses for fsync timings, so /v1/metrics reports query and
// durability latencies in one shape.

// metrics is the server's telemetry. Every field is safe for
// concurrent use.
type metrics struct {
	queriesServed    expvar.Int // completed query requests (topn + search)
	queriesRejected  expvar.Int // admission-limited (429)
	queriesTimeout   expvar.Int // stopped by deadline
	searchStreams    expvar.Int // /v1/search streams opened
	searchCancelled  expvar.Int // streams abandoned by the client
	recordsEvaluated expvar.Int // cumulative Stats.RecordsEvaluated
	layersAccessed   expvar.Int // cumulative Stats.LayersAccessed
	layersPruned     expvar.Int // cumulative Stats.LayersPruned (bound-based skips)
	shellsSkipped    expvar.Int // cumulative Stats.RecordsSkippedByShells
	shellsLayers     expvar.Int // cumulative Stats.ShellLayers (layers served via shell tables)
	batchRequests    expvar.Int // /v1/topn/batch requests served
	batchQueries     expvar.Int // individual queries inside those batches
	mutationOps      expvar.Int // operations through the mutator
	mutationErrors   expvar.Int // operations that failed validation
	snapshotSwaps    expvar.Int // atomic pointer swaps published
	rebuildNanos     expvar.Int // total time building new snapshots
	inflight         expvar.Int // currently admitted queries (gauge)
	walCommits       expvar.Int // batches durably logged before publish
	walCommitErrors  expvar.Int // batches failed (and unpublished) by the WAL
	compactions      expvar.Int // background delta folds published
	compactionErrors expvar.Int // folds abandoned (cascade or replay failure)

	// predictedPageReads accumulates the paper's Eq. 2 analytic I/O cost
	// over served queries: DefaultRandomWeight per layer accessed plus
	// the evaluated records' pages. Reported next to records_evaluated /
	// shells_records_skipped so the model can be compared against the
	// mmap store's measured extent touches (predicted ≥ actual whenever
	// an extent holds more than one predicted page, since pruning skips
	// I/O at extent granularity).
	predictedPageReads expvar.Float
	servingMode        expvar.String // "heap" or "mmap"
	residentBudget     expvar.Int    // -resident-budget, 0 = unlimited

	// dim is the served index's dimension, fixed for the server's life;
	// Eq. 2 needs it to turn evaluated records into pages.
	dim int

	topnLatency      *telemetry.Histogram
	batchLatency     *telemetry.Histogram // whole-batch latency of /v1/topn/batch
	searchLatency    *telemetry.Histogram
	mutateLatency    *telemetry.Histogram
	walCommitLatency *telemetry.Histogram // group-commit (append+fsync) time
	compactLatency   *telemetry.Histogram // journal replay + swap of a finished fold
	foldLatency      *telemetry.Histogram // whole fold: threshold crossing to publish; allocated by New

	vars *expvar.Map
}

func newMetrics() *metrics {
	m := &metrics{
		topnLatency:      &telemetry.Histogram{},
		batchLatency:     &telemetry.Histogram{},
		searchLatency:    &telemetry.Histogram{},
		mutateLatency:    &telemetry.Histogram{},
		walCommitLatency: &telemetry.Histogram{},
		compactLatency:   &telemetry.Histogram{},
	}
	v := new(expvar.Map).Init()
	v.Set("queries_served", &m.queriesServed)
	v.Set("queries_rejected", &m.queriesRejected)
	v.Set("queries_timeout", &m.queriesTimeout)
	v.Set("search_streams", &m.searchStreams)
	v.Set("search_cancelled", &m.searchCancelled)
	v.Set("records_evaluated", &m.recordsEvaluated)
	v.Set("layers_accessed", &m.layersAccessed)
	v.Set("layers_pruned", &m.layersPruned)
	v.Set("shells_records_skipped", &m.shellsSkipped)
	v.Set("shells_layers", &m.shellsLayers)
	v.Set("batch_requests", &m.batchRequests)
	v.Set("batch_queries", &m.batchQueries)
	v.Set("mutation_ops", &m.mutationOps)
	v.Set("mutation_errors", &m.mutationErrors)
	v.Set("snapshot_swaps", &m.snapshotSwaps)
	v.Set("rebuild_ns", &m.rebuildNanos)
	v.Set("inflight", &m.inflight)
	v.Set("wal_commits", &m.walCommits)
	v.Set("wal_commit_errors", &m.walCommitErrors)
	v.Set("compactions", &m.compactions)
	v.Set("compaction_errors", &m.compactionErrors)
	m.servingMode.Set("heap")
	v.Set("predicted_page_reads", &m.predictedPageReads)
	v.Set("serving_mode", &m.servingMode)
	v.Set("resident_budget_bytes", &m.residentBudget)
	v.Set("topn_latency_ms", expvar.Func(func() any { return m.topnLatency.Summary() }))
	v.Set("batch_latency_ms", expvar.Func(func() any { return m.batchLatency.Summary() }))
	v.Set("search_latency_ms", expvar.Func(func() any { return m.searchLatency.Summary() }))
	v.Set("rebuild_latency_ms", expvar.Func(func() any { return m.mutateLatency.Summary() }))
	v.Set("wal_commit_latency_ms", expvar.Func(func() any { return m.walCommitLatency.Summary() }))
	v.Set("compact_latency_ms", expvar.Func(func() any { return m.compactLatency.Summary() }))
	v.Set("fold_ms", expvar.Func(func() any { return m.foldLatency.Summary() }))
	m.vars = v
	return m
}

// attachSnapshot exposes the live snapshot's delta-buffer depth as a
// gauge, so operators can see how far the write path is ahead of the
// background compactor.
func (m *metrics) attachSnapshot(load func() *core.Index) {
	m.vars.Set("delta_pending", expvar.Func(func() any { return load().DeltaLen() }))
}

// attachCache publishes the result cache's counters on the metric map.
// Always attached — a disabled (nil) cache reports zeros, so scrapers
// see a stable key set whether or not -cache-bytes is configured.
func (m *metrics) attachCache(c *cache.Cache) {
	counter := func(read func(cache.Counters) int64) expvar.Var {
		return expvar.Func(func() any { return read(c.Counters()) })
	}
	m.vars.Set("cache_hits", counter(func(ct cache.Counters) int64 { return ct.Hits }))
	m.vars.Set("cache_misses", counter(func(ct cache.Counters) int64 { return ct.Misses }))
	m.vars.Set("cache_coalesced", counter(func(ct cache.Counters) int64 { return ct.Coalesced }))
	m.vars.Set("cache_evictions", counter(func(ct cache.Counters) int64 { return ct.Evictions }))
	m.vars.Set("cache_invalidations", counter(func(ct cache.Counters) int64 { return ct.Invalidations }))
	m.vars.Set("cache_bytes", counter(func(ct cache.Counters) int64 { return ct.Bytes }))
}

// observeQuery folds one completed query's work into the counters.
func (m *metrics) observeQuery(st core.Stats, d time.Duration, h *telemetry.Histogram) {
	m.queriesServed.Add(1)
	m.recordsEvaluated.Add(int64(st.RecordsEvaluated))
	m.layersAccessed.Add(int64(st.LayersAccessed))
	m.layersPruned.Add(int64(st.LayersPruned))
	m.shellsSkipped.Add(int64(st.RecordsSkippedByShells))
	m.shellsLayers.Add(int64(st.ShellLayers))
	m.predictedPageReads.Add(storage.EstimateCost(st.LayersAccessed, st.RecordsEvaluated, m.dim))
	if h != nil { // batch queries time the whole batch, not each member
		h.Observe(d)
	}
}

// Vars exposes the metric map (for embedding servers and for tests).
func (s *Server) Vars() *expvar.Map { return s.metrics.vars }

// SetServingMode records how the snapshot's slabs are backed — "heap"
// (the default) or "mmap" — and the configured resident budget, so
// /v1/metrics and benchmark reports can attribute their numbers to the
// right storage mode. Purely informational; call before serving.
func (s *Server) SetServingMode(mode string, residentBudget int64) {
	s.metrics.servingMode.Set(mode)
	s.metrics.residentBudget.Set(residentBudget)
}

// ServingMode returns the mode recorded by SetServingMode.
func (s *Server) ServingMode() string { return s.metrics.servingMode.Value() }

// AttachVars nests an extra metric group (e.g. the WAL manager's
// counters) under the given name, so it appears on /v1/metrics next to
// the serving counters.
func (s *Server) AttachVars(name string, v expvar.Var) { s.metrics.vars.Set(name, v) }

// PublishVars registers the metric map in the process-global expvar
// registry under the given name. Call at most once per process.
func (s *Server) PublishVars(name string) { expvar.Publish(name, s.metrics.vars) }
