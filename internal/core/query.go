package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/topk"
)

// Result is one ranked answer of a top-N query.
type Result struct {
	ID    uint64
	Score float64
	// Layer is the 0-based layer the record came from.
	Layer int
}

// Stats describes the work a query performed; Table 1 of the paper
// reports exactly these two quantities averaged over a query load.
type Stats struct {
	// RecordsEvaluated counts score computations (one per record of each
	// accessed layer).
	RecordsEvaluated int
	// LayersAccessed counts the layers read.
	LayersAccessed int
	// LayersPruned counts layers skipped by the bound-based pruning of
	// the columnar path: once enough pending candidates beat a layer's
	// score bound, that layer and every deeper one are provably unable
	// to contribute and the walk stops without scoring them.
	LayersPruned int
	// RecordsSkippedByShells counts records of accessed layers that the
	// spherical-shell tables (shellslab.go) proved unable to enter the
	// layer's top-keep, so they were never scored. RecordsEvaluated
	// excludes them: evaluated + skipped = the accessed layers' sizes.
	RecordsSkippedByShells int
	// ShellLayers counts the accessed layers that were evaluated through
	// their shell table (whether or not any bucket was actually skipped).
	ShellLayers int
}

var errDim = errors.New("core: weight vector dimension mismatch")

// scoreParallelMin is the smallest layer for which a Searcher scores
// records on the worker pool; smaller layers stay on the inline loop
// (the fork/join overhead would exceed the dot products saved). A var
// so tests can lower it and drive the parallel path on small indexes.
var scoreParallelMin = 4096

// ErrNonFiniteWeight is returned by queries whose weight vector carries
// a NaN or ±Inf component. Such weights would otherwise flow straight
// through the arithmetic: NaN poisons every score and defeats the
// collectors' ordering, yielding garbage ranks. Rejecting at the query
// boundary keeps every downstream comparison meaningful.
var ErrNonFiniteWeight = errors.New("core: non-finite weight")

// ValidateWeights checks a query weight vector against an index
// dimension: the length must equal dim and every component must be
// finite. The returned error wraps ErrNonFiniteWeight for NaN/Inf
// components, making the two failure classes distinguishable to
// callers (e.g. for HTTP status mapping).
func ValidateWeights(weights []float64, dim int) error {
	if len(weights) != dim {
		return fmt.Errorf("%w: got %d, want %d", errDim, len(weights), dim)
	}
	for j, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weights[%d] = %v", ErrNonFiniteWeight, j, w)
		}
	}
	return nil
}

// TopN returns the n records maximizing the weighted sum weights·x, in
// descending score order, together with evaluation statistics. Fewer
// than n results are returned only when the index holds fewer than n
// records; n <= 0 returns no results (use NewSearcher's unbounded mode
// for the complete ranking). To minimize instead, negate the weights
// (paper Section 2). Weights must be finite: NaN or ±Inf components
// are rejected with an error wrapping ErrNonFiniteWeight.
//
// This is the query-evaluation procedure of paper Section 3.2: layers
// are retrieved outermost first; each layer contributes its best
// remaining records to a candidate set; a candidate is emitted once it
// beats the maximum of the current layer, which no deeper layer can
// exceed (Corollary 1).
func (ix *Index) TopN(weights []float64, n int) ([]Result, Stats, error) {
	if err := ValidateWeights(weights, ix.dim); err != nil {
		return nil, Stats{}, err
	}
	if n <= 0 {
		// The documented contract is "the n best records"; at n <= 0 that
		// is none. (NewSearcher deliberately maps limit <= 0 to an
		// unbounded stream — a sensible default for progressive retrieval
		// but an OOM-shaped surprise for a bounded one-shot query.)
		return nil, Stats{}, nil
	}
	s := ix.NewSearcher(weights, n)
	// n is caller-controlled; clamp the preallocation by the number of
	// live records so a huge n cannot force a huge allocation up front.
	out := make([]Result, 0, min(n, ix.Len()))
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, s.Stats(), nil
}

// Searcher streams the results of one linear optimization query in
// exact rank order (progressive retrieval, paper Section 3.3): the
// record ranked M is always delivered before the record ranked M+1, so
// clients can consume a prefix and abandon the rest at no extra cost.
type Searcher struct {
	ix       *Index
	weights  []float64
	remain   int     // results still to deliver; <0 means unbounded
	k        int     // next layer to evaluate
	wnorm    float64 // ‖weights‖, computed at the first prune check
	wnormSet bool
	cand     candidates
	emit     []Result // pending results in descending order
	emitPos  int
	scoreBuf []float64    // scratch for layer scoring, reused per layer
	best     topk.Bounded // reusable per-layer top-k collector, set up at the first layer
	shellOrd []shellRef   // reusable shell bucket schedule scratch
	stats    Stats
	trace    func(TraceEvent) // optional step-by-step narration
	ctx      context.Context  // optional cancellation; nil = never cancelled
	err      error            // ctx error once observed

	// Delta merge stream (see delta.go): the pending unlayered records
	// this search can deliver — at most its limit — scored and sorted on
	// the total order at construction, woven into the base walk by Next.
	// nil when the index has no delta.
	deltaRank []Result
	deltaPos  int
}

// WithContext attaches ctx to the searcher: once ctx is cancelled or its
// deadline passes, Next stops before evaluating any further layer and
// reports no more results. The cause is available through Err. This is
// the hook a network server needs so an abandoned progressive stream
// stops consuming layers. Returns the searcher for chaining; must be
// called before the first Next.
func (s *Searcher) WithContext(ctx context.Context) *Searcher {
	s.ctx = ctx
	return s
}

// Err returns the context error that stopped the search, or nil when
// the search ended by limit or exhaustion (or is still running).
func (s *Searcher) Err() error { return s.err }

// cancelled records and reports a context cancellation.
func (s *Searcher) cancelled() bool {
	if s.ctx == nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return true
	}
	return false
}

// NewSearcherChecked prepares a progressive query, reporting exactly
// why a weight vector was rejected (wrong dimension, or a NaN/±Inf
// component wrapping ErrNonFiniteWeight). limit bounds the number of
// results; limit <= 0 deliberately streams the complete ranking (the
// progressive contract: consume a prefix, abandon the rest — an
// unbounded stream costs only what is read). A pending delta is the
// exception: construction scores every delta record, and sorts the best
// limit of them, or all of them when the search is unbounded.
func (ix *Index) NewSearcherChecked(weights []float64, limit int) (*Searcher, error) {
	if err := ValidateWeights(weights, ix.dim); err != nil {
		return nil, err
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	if limit <= 0 {
		limit = -1
	}
	s := &Searcher{ix: ix, weights: w, remain: limit}
	s.cand.bounded = limit > 0
	if limit > 0 {
		// A bounded search delivers at most min(limit, Len()) results, so
		// the emit buffer and the candidate run (ties past the cut aside)
		// never need more: size them once instead of growing by doubling.
		size := min(limit, ix.Len())
		s.emit = make([]Result, 0, size)
		s.cand.run = make([]topk.Item, 0, size)
		s.cand.spare = make([]topk.Item, 0, size)
	}
	if ix.delta != nil && ix.delta.live > 0 {
		// Brute-force the delta up front. The stats account every pending
		// record once, like a layer's; only the best limit of them are
		// kept for the merge, as no other can be among the first limit
		// results.
		s.deltaRank = ix.rankDelta(w, limit)
		s.stats.RecordsEvaluated += ix.delta.live
	}
	return s, nil
}

// NewSearcher is NewSearcherChecked minus the diagnosis: it returns nil
// when the weight vector is invalid. Kept for callers that validate up
// front; new code that can surface errors should prefer the checked
// constructor so the reason is not lost.
func (ix *Index) NewSearcher(weights []float64, limit int) *Searcher {
	s, _ := ix.NewSearcherChecked(weights, limit)
	return s
}

// Stats returns the work performed so far.
func (s *Searcher) Stats() Stats { return s.stats }

// Next returns the next result in rank order. ok is false when the
// limit has been reached or the index is exhausted. With a pending
// delta the base walk and the pre-ranked delta stream are two exactly
// sorted sequences merged under the total order (score descending, ID
// ascending), so the merged stream is the exact ranking of the merged
// record set.
func (s *Searcher) Next() (Result, bool) {
	if s.remain == 0 || s.err != nil || s.cancelled() {
		return Result{}, false
	}
	if s.deltaRank == nil {
		if !s.fillBase() {
			return Result{}, false
		}
		return s.deliverBase(), true
	}
	baseOK := s.fillBase()
	if s.err != nil {
		// Cancellation inside the base walk must stop the merged stream
		// too, not fall through to draining the delta.
		return Result{}, false
	}
	if s.deltaPos < len(s.deltaRank) {
		d := s.deltaRank[s.deltaPos]
		if !baseOK || topk.ResultGreater(d.Score, d.ID, s.emit[s.emitPos].Score, s.emit[s.emitPos].ID) {
			s.deltaPos++
			if s.remain > 0 {
				s.remain--
			}
			return d, true
		}
	}
	if !baseOK {
		return Result{}, false
	}
	return s.deliverBase(), true
}

// fillBase refills the base walk's emit buffer until it holds an
// undelivered result, reporting false on exhaustion or cancellation
// (s.err distinguishes the two).
func (s *Searcher) fillBase() bool {
	for s.emitPos >= len(s.emit) {
		// Re-checked inside the refill loop so a cancelled context is
		// observed before every layer evaluation, not just once per result.
		if s.cancelled() {
			return false
		}
		if !s.advance() {
			return false
		}
	}
	return true
}

// deliverBase pops the buffered base head with Next's bookkeeping.
func (s *Searcher) deliverBase() Result {
	r := s.emit[s.emitPos]
	s.emitPos++
	if s.remain > 0 {
		s.remain--
	}
	return r
}

// advance evaluates one more layer (or drains the candidate set once
// layers are exhausted or pruned away) and refills the emit buffer. It
// reports false when nothing remains.
func (s *Searcher) advance() bool {
	ix := s.ix
	if s.k >= len(ix.layers) {
		return s.drainCandidates()
	}
	if s.tryPrune() {
		return s.drainCandidates()
	}
	// This layer will be evaluated: give the paging seam (mmap mode) its
	// chance to advise the layer's extents in. Pruned layers never get
	// here, so skipped scoring is skipped I/O too.
	ix.noteLayerAccess(s.k)
	sl := &ix.slabs[s.k]
	if s.remain > 0 {
		// Shell evaluation needs a bounded keep so the collector can fill
		// and its threshold become a pruning floor; unbounded searches
		// keep every record anyway, so the full scan is already optimal.
		if t := ix.shellTab(s.k); t != nil {
			s.consumeLayerShells(sl, t)
			return true
		}
	}
	s.consumeLayer(sl, s.layerScores(sl))
	return true
}

// drainCandidates finalizes pending candidates once no deeper layer can
// contribute: every remaining candidate is final, in rank order, up to
// the limit. The rest can never be delivered and are dropped.
func (s *Searcher) drainCandidates() bool {
	s.emit = s.emit[:0]
	s.emitPos = 0
	for s.remain < 0 || len(s.emit) < s.remain {
		it, ok := s.cand.peek()
		if !ok {
			break
		}
		s.cand.pop()
		r := s.result(it)
		s.emitTrace(TraceEvent{Kind: TraceDrained, Layer: -1, ID: r.ID, Score: r.Score})
		s.emit = append(s.emit, r)
	}
	s.cand.Reset()
	return len(s.emit) > 0
}

// tryPrune integrates the paper's Section 6 bound-based pruning into
// the core walk: when the searcher already holds at least `remain`
// candidates whose scores strictly beat layer k's score bound — which,
// by hull nesting, also bounds every deeper layer — no unscored record
// can ever enter the remaining top results, so the walk ends and the
// candidates drain in rank order. The candidate run is sorted, so that
// is one compare against the remain-th candidate, the floor. The strict
// comparison is what keeps the output bit-identical to the unpruned
// walk: at an exact tie the unpruned walk may prefer the deeper layer's
// record, so a tied bound must not prune. Reports whether it pruned
// (s.k jumps past the last layer).
func (s *Searcher) tryPrune() bool {
	ix := s.ix
	if s.remain <= 0 || ix.noPrune {
		return false
	}
	floor := s.cand.floor(s.remain)
	if math.IsInf(floor, -1) {
		return false
	}
	s.ensureWNorm()
	bound := ix.slabs[s.k].scoreBound(s.weights, s.wnorm)
	if floor <= bound {
		return false
	}
	pruned := len(ix.layers) - s.k
	s.emitTrace(TraceEvent{Kind: TraceLayersPruned, Layer: s.k, Score: bound, Evaluated: pruned})
	s.stats.LayersPruned += pruned
	s.k = len(ix.layers)
	return true
}

// ensureWNorm computes ‖weights‖ once per searcher; both the layer
// bound (tryPrune) and the shell bucket bounds need it.
func (s *Searcher) ensureWNorm() {
	if s.wnormSet {
		return
	}
	var sq float64
	for _, w := range s.weights {
		sq += w * w
	}
	s.wnorm = math.Sqrt(sq)
	s.wnormSet = true
}

// ensureScoreBuf guarantees scratch for n scores, sized once at the
// largest layer so warm advances never reallocate.
func (s *Searcher) ensureScoreBuf(n int) []float64 {
	if cap(s.scoreBuf) < n {
		s.scoreBuf = make([]float64, max(n, s.ix.maxLayer))
	}
	return s.scoreBuf[:n]
}

// layerScores scores every row of the current layer's slab into the
// score scratch.
func (s *Searcher) layerScores(sl *layerSlab) []float64 {
	n := len(sl.pos)
	scores := s.ensureScoreBuf(n)
	s.scoreRows(sl, scores, 0, n)
	return scores
}

// scoreRows fills scores[i] = w·row_i for the slab rows [lo, hi).
// Large runs are partitioned across the worker pool by row range; each
// worker fills its own slots, and the collectors order by the total
// order rather than by offer order, so the selected top-k (ties
// included) is identical at any parallelism.
func (s *Searcher) scoreRows(sl *layerSlab, scores []float64, lo, hi int) {
	workers := parallel.Workers(s.ix.workers)
	if workers > 1 && hi-lo >= scoreParallelMin {
		w := s.weights
		parallel.For(hi-lo, workers, scoreParallelMin, func(a, b int) {
			scoreSlabRange(scores, sl.data, w, lo+a, lo+b)
		})
		return
	}
	scoreSlabRange(scores, sl.data, s.weights, lo, hi)
}

// beginLayer starts a layer evaluation of n records: resets the emit
// buffer and sizes the reusable per-layer collector to keep the best
// min(remaining, n) records (anything weaker can never reach the final
// top-N because enough stronger records exist in this very layer;
// unbounded searches keep the whole layer).
func (s *Searcher) beginLayer(n int) {
	ix := s.ix
	s.emit = s.emit[:0]
	s.emitPos = 0
	keep := n
	if s.remain > 0 && s.remain < keep {
		keep = s.remain
	}
	if s.best.K() == 0 {
		// Size the reusable collector once: no later layer keeps more
		// than min(current remaining, largest layer) records, so warm
		// advances never grow it. A bounded search buffers twice that
		// between cuts; an unbounded one keeps whole layers, never cuts,
		// and needs room for the largest layer only.
		hint := max(ix.maxLayer, keep)
		if s.remain > 0 {
			s.best = *topk.NewBounded(min(s.remain, hint))
		} else {
			s.best = *topk.NewBoundedCap(hint, hint)
		}
	}
	s.best.ResetK(keep)
}

// consumeLayer folds one scored layer into the searcher's state: offers
// the live records that reach the candidate floor to the collector,
// then finalizes through finishLayer. A record below the floor has at
// least remain candidates above it, so it can never be delivered: one
// compare rejects it before the collector. The layer maximum still spans
// every record, dead or alive, below the floor or not: deeper layers
// nest inside this layer's hull with all of them on it, so Corollary 1's
// finalization bound is the maximum over the whole layer.
func (s *Searcher) consumeLayer(sl *layerSlab, scores []float64) {
	s.beginLayer(len(scores))
	floor := s.cand.floor(s.remain)
	dead := s.ix.tombstones()
	top, topRow := math.Inf(-1), -1
	for i, sc := range scores {
		if sc > top {
			top, topRow = sc, i
		}
		if sc < floor || (dead != nil && dead.has(sl.pos[i])) {
			continue
		}
		s.best.Offer(topk.Item{ID: sl.pos[i], Score: sc})
	}
	s.finishLayer(sl, len(scores), top, topRow)
}

// finishLayer completes the current layer: accounts the work, ranks the
// collector, finalizes outer candidates and the layer maximum under the
// Corollary 1 bound, and merges the rest into the candidates. evaluated
// is the number of records actually scored (the whole layer on the
// plain path; possibly fewer through shells). top is Corollary 1's
// bound: the layer maximum over every record, dead or alive, or, when
// that maximum is below the candidate floor, any value below the floor,
// which finalizes the same remain candidates. topRow is the slab row
// that scores top, or −1 when no record was scored (shells skipped the
// whole layer, and top is the best bucket bound).
func (s *Searcher) finishLayer(sl *layerSlab, evaluated int, top float64, topRow int) {
	ix := s.ix
	s.stats.LayersAccessed++
	s.stats.RecordsEvaluated += evaluated
	t := s.best.Descending()
	if math.IsInf(top, -1) {
		// Entirely empty layer (cannot happen: construction never emits
		// one, and tombstones stay in it). Finalize nothing.
		s.k++
		return
	}
	switch {
	case len(t) > 0:
		s.emitTrace(TraceEvent{
			Kind: TraceLayerEvaluated, Layer: s.k,
			ID: ix.ids[t[0].ID], Score: t[0].Score, Evaluated: evaluated,
		})
	case topRow >= 0:
		s.emitTrace(TraceEvent{
			Kind: TraceLayerEvaluated, Layer: s.k,
			ID: sl.ids[topRow], Score: top, Evaluated: evaluated,
		})
	}

	// Candidates from outer layers that beat this layer's maximum can be
	// finalized now: no deeper layer can exceed it (Corollary 1). The
	// emission loop stops at the query limit: anything further stays a
	// candidate (it would never be delivered).
	for s.remain < 0 || len(s.emit) < s.remain {
		c, ok := s.cand.peek()
		if !ok || c.Score <= top {
			break
		}
		s.cand.pop()
		r := s.result(c)
		s.emitTrace(TraceEvent{Kind: TraceResultFromCandidates, Layer: s.k, ID: r.ID, Score: r.Score})
		s.emit = append(s.emit, r)
	}
	// This layer's maximum is final too, unless a tombstone beats it; the
	// rest become candidates.
	rest := t
	if len(t) > 0 && t[0].Score >= top && (s.remain < 0 || len(s.emit) < s.remain) {
		r0 := s.result(t[0])
		s.emitTrace(TraceEvent{Kind: TraceResultFromLayer, Layer: s.k, ID: r0.ID, Score: r0.Score})
		s.emit = append(s.emit, r0)
		rest = t[1:]
	}
	for _, it := range rest {
		s.emitTrace(TraceEvent{Kind: TraceCandidateKept, Layer: s.k, ID: ix.ids[it.ID], Score: it.Score})
	}
	s.cand.add(rest, s.remain-len(s.emit))
	s.k++
}

// candidates is the walk's candidate set: records of outer layers that
// may still outrank a deeper layer's (paper Section 3.2). An unbounded
// search keeps every one in a max-heap. A bounded search keeps a run in
// rank order, cut after the keep-th record of the last merge plus any
// that tie its score: a record further down has at least keep better
// ones ahead of it and at most keep more deliveries to reach it, so it
// never would be delivered. The cut compares on score alone, like the
// floor, so after a merge the run holds exactly the candidates scoring
// at or above the keep-th's score, ties kept whatever their position.
type candidates struct {
	bounded bool
	heap    topk.MaxHeap // unbounded searches
	run     []topk.Item  // bounded searches: rank order from head on
	head    int          // run[:head] is already delivered
	spare   []topk.Item  // merge destination, swapped with run
}

// Reset empties the set, retaining capacity.
func (c *candidates) Reset() {
	c.heap.Reset()
	c.run = c.run[:0]
	c.head = 0
}

// peek returns the best candidate; ok is false when there is none.
func (c *candidates) peek() (topk.Item, bool) {
	if !c.bounded {
		return c.heap.Peek()
	}
	if c.head < len(c.run) {
		return c.run[c.head], true
	}
	return topk.Item{}, false
}

// pop removes the best candidate.
func (c *candidates) pop() {
	if c.bounded {
		c.head++
		return
	}
	c.heap.Pop()
}

// floor returns the score below which no record can be delivered by a
// bounded search with n results left to deliver: the n-th best
// candidate's, or −Inf while fewer than n candidates are held.
func (c *candidates) floor(n int) float64 {
	if n <= 0 || len(c.run)-c.head < n {
		return math.Inf(-1)
	}
	return c.run[c.head+n-1].Score
}

// add merges a layer's leftover records, in rank order, into the set.
// A bounded run keeps its first keep records of the merge plus the ones
// that tie the keep-th's score.
func (c *candidates) add(rest []topk.Item, keep int) {
	if !c.bounded {
		for _, it := range rest {
			c.heap.Push(it)
		}
		return
	}
	a := c.run[c.head:]
	out := c.spare[:0]
	for i, j := 0, 0; keep > 0 && (i < len(a) || j < len(rest)); {
		var it topk.Item
		if j == len(rest) || (i < len(a) && topk.Greater(a[i], rest[j])) {
			it = a[i]
			i++
		} else {
			it = rest[j]
			j++
		}
		if len(out) >= keep && it.Score < out[keep-1].Score {
			break
		}
		out = append(out, it)
	}
	c.spare = c.run[:0]
	c.run = out
	c.head = 0
}

func (s *Searcher) result(it topk.Item) Result {
	return Result{ID: s.ix.ids[it.ID], Score: it.Score, Layer: s.ix.layerOfPos(it.ID)}
}

// Score computes weights·vector for an arbitrary record by ID, looking
// through any pending delta.
func (ix *Index) Score(weights []float64, id uint64) (float64, bool) {
	v, ok := ix.Vector(id)
	if !ok {
		return 0, false
	}
	var s float64
	for j, wj := range weights {
		s += wj * v[j]
	}
	return s, true
}
