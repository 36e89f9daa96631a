package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// Wire types. The JSON surface is deliberately small and stable:
// clients send weights, get back (id, score, layer) triples plus the
// paper's two work counters.

// TopNRequest is the body of POST /v1/topn.
type TopNRequest struct {
	Weights []float64 `json:"weights"`
	N       int       `json:"n"`
	// Ranges, when present, constrain results to records whose
	// attributes fall inside every given closed interval — the paper's
	// Section 4 constrained ("local") queries, answered by expanding
	// the global ranking until n records qualify. Filtered queries
	// bypass the result cache: cached entries are keyed by weights
	// alone and their prefixes answer unfiltered queries only.
	Ranges []RangeJSON `json:"ranges,omitempty"`
}

// RangeJSON is one interval constraint on one attribute. A nil bound
// is unbounded on that side — `{"attr":1,"lo":5}` means [5, +inf), not
// [5, 0] (which the old non-pointer decoding produced, turning every
// half-bounded request into a 400 "empty range"). A constraint with
// neither bound constrains nothing and is dropped at parse time.
type RangeJSON struct {
	Attr int      `json:"attr"`
	Lo   *float64 `json:"lo,omitempty"`
	Hi   *float64 `json:"hi,omitempty"`
}

// Bound returns a pointer to v — a convenience for building RangeJSON
// values in clients and tests.
func Bound(v float64) *float64 { return &v }

// SearchRequest is the body of POST /v1/search. Limit <= 0 asks for the
// complete ranking; if the server is configured with a MaxResults cap,
// the stream stops there instead and the trailer reports truncated.
type SearchRequest struct {
	Weights []float64 `json:"weights"`
	Limit   int       `json:"limit"`
}

// RecordJSON is one record in an insert request.
type RecordJSON struct {
	ID     uint64    `json:"id"`
	Vector []float64 `json:"vector"`
}

// InsertRequest is the body of POST /v1/insert.
type InsertRequest struct {
	Records []RecordJSON `json:"records"`
}

// DeleteRequest is the body of POST /v1/delete. MissingOK asks the
// server to skip IDs it does not hold (deduplicated) instead of
// rejecting the whole batch — the mode a shard coordinator's broadcast
// deletes use, where each shard owns only part of the ID set. The
// response's Applied then reports how many records were actually
// removed.
type DeleteRequest struct {
	IDs       []uint64 `json:"ids"`
	MissingOK bool     `json:"missing_ok,omitempty"`
}

// ResultJSON is one ranked answer on the wire.
type ResultJSON struct {
	ID    uint64  `json:"id"`
	Score float64 `json:"score"`
	Layer int     `json:"layer"`
}

// StatsJSON mirrors core.Stats. The shell counters are zero unless the
// server runs with spherical-shell pruning (Config.Shells); evaluated
// plus skipped always totals the accessed layers' record count.
type StatsJSON struct {
	RecordsEvaluated       int `json:"records_evaluated"`
	LayersAccessed         int `json:"layers_accessed"`
	LayersPruned           int `json:"layers_pruned"`
	RecordsSkippedByShells int `json:"records_skipped_by_shells"`
	ShellLayers            int `json:"shell_layers"`
}

func statsJSON(st core.Stats) StatsJSON {
	return StatsJSON{
		RecordsEvaluated:       st.RecordsEvaluated,
		LayersAccessed:         st.LayersAccessed,
		LayersPruned:           st.LayersPruned,
		RecordsSkippedByShells: st.RecordsSkippedByShells,
		ShellLayers:            st.ShellLayers,
	}
}

// TopNResponse is the body of a successful POST /v1/topn.
type TopNResponse struct {
	Results []ResultJSON `json:"results"`
	Stats   StatsJSON    `json:"stats"`
}

// TopNBatchRequest is the body of POST /v1/topn/batch: one n shared by
// every query, matching core.Index.TopNBatch underneath.
type TopNBatchRequest struct {
	Weights [][]float64 `json:"weights"`
	N       int         `json:"n"`
}

// TopNBatchResponse answers a batch positionally: Queries[i] holds the
// results and stats of Weights[i], exactly as a solo /v1/topn would
// have reported them.
type TopNBatchResponse struct {
	Queries []TopNResponse `json:"queries"`
}

// SearchTrailer is the final NDJSON line of a completed /v1/search
// stream (result lines carry no "done" field). Truncated is true when
// the server's MaxResults cap cut the stream short of what the request
// asked for, so a capped ranking is distinguishable from a complete one.
type SearchTrailer struct {
	Done      bool      `json:"done"`
	Truncated bool      `json:"truncated,omitempty"`
	Stats     StatsJSON `json:"stats"`
}

// MutateResponse is the body of a successful insert/delete.
type MutateResponse struct {
	Applied int `json:"applied"` // records inserted or deleted
	Len     int `json:"len"`     // live records after the swap
	Layers  int `json:"layers"`  // layers after the swap
}

// HealthResponse is the body of GET /v1/healthz and its liveness /
// readiness split. /v1/healthz/live answers 200 whenever the process
// serves HTTP at all; /v1/healthz/ready answers 200 only once the
// index is recovered and queryable (503 otherwise), which is what a
// shard coordinator polls to exclude a recovering replica from
// fan-out. Plain /v1/healthz keeps its historical always-200 shape
// with the ready bit included.
type HealthResponse struct {
	OK      bool `json:"ok"`
	Ready   bool `json:"ready"`
	Records int  `json:"records"`
	Layers  int  `json:"layers"`
	Dim     int  `json:"dim"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topn", s.handleTopN)
	mux.HandleFunc("POST /v1/topn/batch", s.handleTopNBatch)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz/live", s.handleLive)
	mux.HandleFunc("GET /v1/healthz/ready", s.handleReady)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// queryContext applies the configured default deadline when the client
// request carries none.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, s.cfg.QueryTimeout)
		}
	}
	return ctx, func() {}
}

func (s *Server) clampLimit(n int) int {
	if s.cfg.MaxResults > 0 && (n <= 0 || n > s.cfg.MaxResults) {
		return s.cfg.MaxResults
	}
	return n
}

func (s *Server) handleTopN(w http.ResponseWriter, r *http.Request) {
	var req TopNRequest
	if !decode(w, r, &req) {
		return
	}
	if req.N <= 0 {
		writeErr(w, http.StatusBadRequest, "n must be positive")
		return
	}
	// Reject malformed weight vectors (wrong dimension, NaN/Inf
	// components) before spending an admission slot. Standard JSON
	// cannot carry NaN/Inf literals, but ValidateWeights is the
	// authoritative gate for any ingress that can (and returns a clearer
	// error than the nil-Searcher fallback below).
	if err := core.ValidateWeights(req.Weights, s.Snapshot().Dim()); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ranges, rngErr := NormalizeRanges(req.Ranges, s.Snapshot().Dim())
	if rngErr != nil {
		writeErr(w, http.StatusBadRequest, "%v", rngErr)
		return
	}
	req.Ranges = ranges
	if !s.admit() {
		writeErr(w, http.StatusTooManyRequests, "server at max in-flight queries")
		return
	}
	defer s.release()
	ctx, cancel := s.queryContext(r)
	defer cancel()

	if len(req.Ranges) > 0 {
		s.serveTopNFiltered(ctx, w, req)
		return
	}

	start := time.Now()
	// Epoch before snapshot: paired with apply's store-then-bump, this
	// order makes it impossible for a result computed against a pre-swap
	// snapshot to be cached under the post-swap epoch (cache package
	// comment has the full argument). Harmless when the cache is off
	// (epoch stays 0).
	epoch := s.cache.Epoch()
	snap := s.Snapshot()
	n := s.clampLimit(req.N)
	var (
		results []core.Result
		st      core.Stats
		outcome = cache.Miss
		err     error
	)
	if s.cache != nil {
		results, st, outcome, err = s.cache.GetOrCompute(core.WeightKey(req.Weights), n, epoch,
			func() ([]core.Result, core.Stats, error) {
				return computeTopN(ctx, snap, req.Weights, n)
			})
	} else {
		results, st, err = computeTopN(ctx, snap, req.Weights, n)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.observeQuery(st, time.Since(start), s.metrics.topnLatency)
			s.metrics.queriesTimeout.Add(1)
			writeErr(w, http.StatusServiceUnavailable, "query stopped: %v", err)
		} else {
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// Work counters report evaluation this request actually performed: a
	// hit (or a ride on another request's computation) evaluated nothing.
	// The response stats, by contrast, describe the computation that
	// produced the results — for a prefix-served hit, the original
	// (possibly deeper) walk.
	obsSt := st
	if outcome != cache.Miss {
		obsSt = core.Stats{}
	}
	s.metrics.observeQuery(obsSt, time.Since(start), s.metrics.topnLatency)
	rs := make([]ResultJSON, len(results))
	for i, res := range results {
		rs[i] = ResultJSON{ID: res.ID, Score: res.Score, Layer: res.Layer}
	}
	writeJSON(w, http.StatusOK, TopNResponse{
		Results: rs,
		Stats:   statsJSON(st),
	})
}

// computeTopN is the uncached /v1/topn evaluation, shared verbatim by
// the cache-miss leg and the cache-disabled leg so the two can never
// drift: the context-aware Searcher rather than Index.TopN, so a
// deadline or a dropped connection stops the layer walk mid-query. The
// checked constructor re-validates against the snapshot actually
// queried: the handler's pre-admission gate used an earlier Snapshot()
// load, and a concurrent swap could have changed the dimension in
// between. A context error is reported with the stats accumulated so
// far (the handler still records the wasted work).
func computeTopN(ctx context.Context, snap *core.Index, weights []float64, n int) ([]core.Result, core.Stats, error) {
	sr, err := snap.NewSearcherChecked(weights, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	sr.WithContext(ctx)
	// Cap the preallocation by the snapshot size: n is client-controlled
	// and, with no MaxResults clamp configured, a huge n must not force a
	// huge (or panicking) allocation up front.
	results := make([]core.Result, 0, min(n, snap.Len()))
	for {
		res, ok := sr.Next()
		if !ok {
			break
		}
		results = append(results, res)
	}
	if err := sr.Err(); err != nil {
		return nil, sr.Stats(), err
	}
	return results, sr.Stats(), nil
}

// NormalizeRanges validates and canonicalizes predicate constraints at
// parse time: attributes must exist (dim < 0 skips the upper-bound
// check — the coordinator normalizes without knowing the corpus
// dimension and lets shards reject bad attributes), a fully bounded
// interval must be non-empty (Lo > Hi can only ever force a
// full-corpus expansion that returns nothing), and constraints with no
// bounds at all are dropped. A request whose every range is unbounded
// — including the degenerate `"ranges": []` — normalizes to nil and is
// served as the unfiltered query it is: through the result cache here,
// through the ordinary scatter on the coordinator.
func NormalizeRanges(ranges []RangeJSON, dim int) ([]RangeJSON, error) {
	var out []RangeJSON
	for _, rg := range ranges {
		if rg.Attr < 0 || (dim >= 0 && rg.Attr >= dim) {
			return nil, fmt.Errorf("range on attribute %d of %d", rg.Attr, dim)
		}
		if rg.Lo == nil && rg.Hi == nil {
			continue // unbounded both sides: constrains nothing
		}
		if rg.Lo != nil && rg.Hi != nil && *rg.Lo > *rg.Hi {
			return nil, fmt.Errorf("empty range [%g, %g] on attribute %d", *rg.Lo, *rg.Hi, rg.Attr)
		}
		out = append(out, rg)
	}
	return out, nil
}

// serveTopNFiltered answers a /v1/topn request carrying range
// predicates: the paper's Section 4 expansion — stream the global
// ranking (context-aware, so a deadline stops a predicate that is
// anti-correlated with the weights mid-scan) and keep the first n
// qualifying records. Runs uncached: cache entries are keyed by weights
// alone and prefix-serve unfiltered rankings only. The shard
// coordinator pushes the same ranges down to every shard and merges the
// per-shard filtered rankings on the total order (see internal/shard).
func (s *Server) serveTopNFiltered(ctx context.Context, w http.ResponseWriter, req TopNRequest) {
	start := time.Now()
	snap := s.Snapshot()
	n := s.clampLimit(req.N)
	sr, err := snap.NewSearcherChecked(req.Weights, 0) // unbounded: expand until n qualify
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sr.WithContext(ctx)
	results := make([]core.Result, 0, min(n, snap.Len()))
	for len(results) < n {
		res, ok := sr.Next()
		if !ok {
			break
		}
		v, ok := snap.Vector(res.ID)
		if !ok {
			continue // unreachable: the searcher only emits live records
		}
		if inRanges(v, req.Ranges) {
			results = append(results, res)
		}
	}
	st := sr.Stats()
	s.metrics.observeQuery(st, time.Since(start), s.metrics.topnLatency)
	if err := sr.Err(); err != nil {
		s.metrics.queriesTimeout.Add(1)
		writeErr(w, http.StatusServiceUnavailable, "query stopped: %v", err)
		return
	}
	rs := make([]ResultJSON, len(results))
	for i, res := range results {
		rs[i] = ResultJSON{ID: res.ID, Score: res.Score, Layer: res.Layer}
	}
	writeJSON(w, http.StatusOK, TopNResponse{Results: rs, Stats: statsJSON(st)})
}

func inRanges(v []float64, ranges []RangeJSON) bool {
	for _, rg := range ranges {
		if rg.Lo != nil && v[rg.Attr] < *rg.Lo {
			return false
		}
		if rg.Hi != nil && v[rg.Attr] > *rg.Hi {
			return false
		}
	}
	return true
}

// handleTopNBatch answers B queries in one request against one
// snapshot. Per-query output is bit-identical to solo /v1/topn calls.
// One invalid weight vector fails the entire request (all-or-nothing,
// like a single query); the batch occupies a single admission slot — it
// is one request's worth of work from the scheduler's point of view.
func (s *Server) handleTopNBatch(w http.ResponseWriter, r *http.Request) {
	var req TopNBatchRequest
	if !decode(w, r, &req) {
		return
	}
	if req.N <= 0 {
		writeErr(w, http.StatusBadRequest, "n must be positive")
		return
	}
	if len(req.Weights) == 0 {
		writeErr(w, http.StatusBadRequest, "no queries")
		return
	}
	// Bound the batch fan-out like the admission cap bounds solo queries:
	// a single request must not smuggle in unbounded work.
	if maxQ := s.cfg.MaxInFlight; len(req.Weights) > maxQ {
		writeErr(w, http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(req.Weights), maxQ)
		return
	}
	// Reject malformed weight vectors (wrong dimension, NaN/Inf
	// components) before spending an admission slot, mirroring /v1/topn.
	// TopNBatch re-validates every vector against the snapshot actually
	// queried before any scoring (all-or-nothing), so this is a cheap
	// early 400 with a per-query position, not the authoritative gate.
	dim := s.Snapshot().Dim()
	for q, wts := range req.Weights {
		if err := core.ValidateWeights(wts, dim); err != nil {
			writeErr(w, http.StatusBadRequest, "batch query %d: %v", q, err)
			return
		}
	}
	if !s.admit() {
		writeErr(w, http.StatusTooManyRequests, "server at max in-flight queries")
		return
	}
	defer s.release()

	start := time.Now()
	// Same epoch-before-snapshot order as the solo handler.
	epoch := s.cache.Epoch()
	snap := s.Snapshot()
	n := s.clampLimit(req.N)

	var (
		results [][]core.Result
		stats   []core.Stats
		// computedWork[q] is true when this request actually evaluated
		// query q (the first occurrence of a missed key): only those
		// queries fold real numbers into the cumulative work counters.
		computedWork []bool
	)
	if s.cache != nil {
		var err error
		results, stats, computedWork, err = s.batchThroughCache(snap, req.Weights, n, epoch)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		var err error
		results, stats, err = snap.TopNBatch(req.Weights, n)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.metrics.batchRequests.Add(1)
	s.metrics.batchQueries.Add(int64(len(req.Weights)))
	resp := TopNBatchResponse{Queries: make([]TopNResponse, len(results))}
	for q, res := range results {
		rs := make([]ResultJSON, len(res))
		for i, rr := range res {
			rs[i] = ResultJSON{ID: rr.ID, Score: rr.Score, Layer: rr.Layer}
		}
		resp.Queries[q] = TopNResponse{Results: rs, Stats: statsJSON(stats[q])}
		obsSt := stats[q]
		if computedWork != nil && !computedWork[q] {
			obsSt = core.Stats{} // served from cache (or a duplicate): no new work
		}
		s.metrics.observeQuery(obsSt, 0, nil)
	}
	s.metrics.batchLatency.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// batchThroughCache answers a batch with cache consultation: hits are
// served from their entries, distinct missed keys are evaluated in one
// TopNBatch call, and each computed ranking is installed for the next
// request. Duplicate weight vectors within the batch are evaluated once
// and share the result — the walk is deterministic, so the copies are
// bit-identical by construction. Batch members do not join
// cross-request singleflight flights (that would serialize the batch
// behind solo queries); coalescing within the request is the dedup
// itself.
func (s *Server) batchThroughCache(snap *core.Index, weights [][]float64, n int, epoch uint64) ([][]core.Result, []core.Stats, []bool, error) {
	nq := len(weights)
	results := make([][]core.Result, nq)
	stats := make([]core.Stats, nq)
	computedWork := make([]bool, nq)
	served := make([]bool, nq)
	keys := make([]string, nq)
	missPos := make(map[string]int) // key -> index into missW
	var missW [][]float64
	for q, wts := range weights {
		keys[q] = core.WeightKey(wts)
		if res, st, ok := s.cache.Get(keys[q], n, epoch); ok {
			results[q], stats[q], served[q] = res, st, true
			continue
		}
		if _, dup := missPos[keys[q]]; !dup {
			missPos[keys[q]] = len(missW)
			missW = append(missW, wts)
		}
	}
	if len(missW) > 0 {
		computed, computedStats, err := snap.TopNBatch(missW, n)
		if err != nil {
			return nil, nil, nil, err
		}
		counted := make([]bool, len(missW))
		for q := range weights {
			if served[q] {
				continue
			}
			mi := missPos[keys[q]]
			results[q], stats[q] = computed[mi], computedStats[mi]
			if !counted[mi] {
				counted[mi] = true
				computedWork[q] = true
			}
		}
		for key, mi := range missPos {
			s.cache.Put(key, epoch, n, computed[mi], computedStats[mi])
		}
	}
	return results, stats, computedWork, nil
}

// handleSearch streams progressive retrieval as NDJSON: one ResultJSON
// per line in exact rank order, then a SearchTrailer line on normal
// completion. Clients pay only for the ranks they read; closing the
// connection cancels the request context, which stops the Searcher
// before its next layer.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	if err := core.ValidateWeights(req.Weights, s.Snapshot().Dim()); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.admit() {
		writeErr(w, http.StatusTooManyRequests, "server at max in-flight queries")
		return
	}
	defer s.release()
	ctx, cancel := s.queryContext(r)
	defer cancel()

	start := time.Now()
	snap := s.Snapshot()
	limit := s.clampLimit(req.Limit)
	sr, err := snap.NewSearcherChecked(req.Weights, limit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sr.WithContext(ctx)
	s.metrics.searchStreams.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emitted := 0
	for {
		res, ok := sr.Next()
		if !ok {
			break
		}
		if enc.Encode(ResultJSON{ID: res.ID, Score: res.Score, Layer: res.Layer}) != nil {
			break // client went away; ctx cancel stops the searcher too
		}
		emitted++
		// Flush per result: progressive retrieval's whole point is that
		// rank M arrives without waiting for rank M+1 to be computed.
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	st := sr.Stats()
	s.metrics.observeQuery(st, time.Since(start), s.metrics.searchLatency)
	if err := sr.Err(); err != nil {
		s.metrics.searchCancelled.Add(1)
		return // mid-stream; nothing useful to append
	}
	// The stream was truncated if MaxResults rewrote the requested limit
	// and the cap was actually what stopped the stream (more live records
	// remained beyond the last emitted rank).
	truncated := limit != req.Limit && emitted == limit && emitted < snap.Len()
	enc.Encode(SearchTrailer{Done: true, Truncated: truncated, Stats: statsJSON(st)})
	bw.Flush()
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Records) == 0 {
		writeErr(w, http.StatusBadRequest, "no records")
		return
	}
	recs := make([]core.Record, len(req.Records))
	for i, rec := range req.Records {
		recs[i] = core.Record{ID: rec.ID, Vector: rec.Vector}
	}
	if err := s.Insert(r.Context(), recs); err != nil {
		writeMutationErr(w, err)
		return
	}
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, MutateResponse{Applied: len(recs), Len: snap.Len(), Layers: snap.NumLayers()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, "no ids")
		return
	}
	applied := len(req.IDs)
	if req.MissingOK {
		var err error
		if applied, err = s.DeleteIfPresent(r.Context(), req.IDs); err != nil {
			writeMutationErr(w, err)
			return
		}
	} else if err := s.Delete(r.Context(), req.IDs); err != nil {
		writeMutationErr(w, err)
		return
	}
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, MutateResponse{Applied: applied, Len: snap.Len(), Layers: snap.NumLayers()})
}

func writeMutationErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrDuplicateID):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, core.ErrNotFound):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusServiceUnavailable, "mutation wait aborted: %v (the batch may still apply)", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, s.metrics.vars.String())
}

func (s *Server) health() HealthResponse {
	snap := s.Snapshot()
	return HealthResponse{
		OK:      true,
		Ready:   s.Ready(),
		Records: snap.Len(),
		Layers:  snap.NumLayers(),
		Dim:     snap.Dim(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
