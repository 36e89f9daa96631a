// Package server turns an Onion index into a concurrent network query
// service. The paper positions the index as the engine behind
// interactive top-N model-based queries (Section 1: e-commerce ranking,
// multimedia search); this package supplies the serving shape those
// applications assume, using only the standard library.
//
// # Concurrency model: snapshot isolation
//
// The core index is mutable but not safe for concurrent query +
// maintenance use. Rather than wrap it in locks — which would stall
// every query behind each hull-rebuilding cascade — the server keeps
// the current index behind an atomic.Pointer. Queries load the pointer
// once and run entirely against that immutable snapshot; they never
// block and never observe a partially applied change. All mutations
// funnel through a single mutator goroutine that coalesces pending
// operations into a batch, applies them to a private Clone of the
// current snapshot (reusing the batch cascades of core's maintain.go),
// and publishes the result with one pointer swap. Readers see either
// the old snapshot or the new one — never a torn index.
//
// The trade-off versus fine-grained locking: mutations pay a full
// index copy (O(n) pointers, not O(n) vectors — attribute data is
// shared) and queries may serve slightly stale data during a rebuild,
// but the query path is wait-free and the mutation path amortizes its
// cost across every operation coalesced into the batch. For a
// read-dominated top-N service this is the right corner of the space.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config tunes the server. The zero value is ready to use.
type Config struct {
	// MaxInFlight caps concurrently admitted queries; further requests
	// are rejected with 429 so that overload degrades crisply instead of
	// queueing without bound. 0 means 64.
	MaxInFlight int
	// MaxBatchOps bounds how many pending mutations the mutator folds
	// into one snapshot rebuild. 0 means 32.
	MaxBatchOps int
	// QueryTimeout is the per-request deadline applied to query
	// endpoints when the client supplies none. 0 means 30s; negative
	// disables the default deadline.
	QueryTimeout time.Duration
	// MaxResults caps the n of /v1/topn and the limit of /v1/search
	// (0 = unlimited). A cap keeps one greedy client from turning a
	// top-N service into a full-sort service.
	MaxResults int
	// WAL, when non-nil, makes mutations durable: the mutator hands
	// every applied batch to CommitBatch — one group commit, so a single
	// fsync covers every operation coalesced into the batch — before the
	// snapshot containing it is published. If the commit fails, the
	// snapshot is not published and every operation in the batch is
	// failed back to its caller: nothing is ever acknowledged that would
	// not survive a crash. Typically a *wal.Manager.
	WAL wal.Committer
	// CacheBytes bounds the weight-keyed top-N result cache consulted by
	// /v1/topn and /v1/topn/batch (/v1/search streams bypass it): an LRU
	// from canonical weight bytes to top-K results with singleflight
	// coalescing and epoch invalidation tied to the snapshot swap (see
	// package cache). 0 disables caching entirely — the query path is
	// then byte-identical to a cacheless server.
	CacheBytes int64
	// CacheShards splits the result cache into independently locked
	// shards. 0 means 8.
	CacheShards int
	// DeltaThreshold is the pending-mutation count (delta inserts plus
	// tombstones) at which the mutator schedules a background
	// compaction folding the delta buffer back into the layered base.
	// With the incremental write path (the default), mutations land in
	// an unlayered delta buffer on an O(delta) shallow clone and are
	// merged into every query on the total order, so publish latency is
	// independent of corpus size; compaction re-hulls off the publish
	// path. 0 means 4096. Negative disables the delta path entirely:
	// every batch deep-clones and re-cascades synchronously (the
	// pre-delta behavior, kept for comparison and for workloads that
	// want every snapshot fully layered).
	DeltaThreshold int
	// Shells enables the spherical-shell index mode (paper Section 6)
	// on the served index: each layer's columnar slab is ordered by
	// angular bucket around the layer centroid and queries evaluate
	// only the buckets whose score bound can still matter. Answers are
	// bit-identical with shells on or off; the shells_* metrics report
	// the work skipped. Snapshot publishes and background compactions
	// keep the tables current.
	Shells bool
	// Pruning selects the bound-based pruning mode of the query path
	// (core.PruneAll or PruneNothing). The zero value is full pruning;
	// PruneNothing exists for paper-faithful work measurements, never
	// for correctness.
	Pruning core.PruningMode
}

// DefaultDeltaThreshold is the DeltaThreshold a zero Config uses.
const DefaultDeltaThreshold = 4096

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxInFlight == 0 {
		out.MaxInFlight = 64
	}
	if out.MaxBatchOps == 0 {
		out.MaxBatchOps = 32
	}
	if out.QueryTimeout == 0 {
		out.QueryTimeout = 30 * time.Second
	}
	if out.DeltaThreshold == 0 {
		out.DeltaThreshold = DefaultDeltaThreshold
	}
	return out
}

// ErrClosed is returned by mutations submitted after Close.
var ErrClosed = errors.New("server: shutting down")

// op is one mutation travelling to the mutator goroutine. Exactly one
// of insert/del is set. reply is buffered (capacity 1) so the mutator
// never blocks on an abandoned caller.
type op struct {
	insert []core.Record
	del    []uint64
	// delMissingOK makes the delete skip IDs the index does not hold
	// (and deduplicate the batch) instead of rejecting the whole
	// operation — the mode a shard coordinator's broadcast deletes
	// rely on: every shard deletes the IDs it owns and ignores the
	// rest. The effective set is resolved against the clone being
	// mutated, so it is exact even against concurrent earlier ops in
	// the same batch.
	delMissingOK bool
	reply        chan opResult
}

// opResult answers one op: how many records the operation actually
// touched (inserts: all-or-nothing; missing-ok deletes: the subset
// present) and its error.
type opResult struct {
	applied int
	err     error
}

// Server serves linear optimization queries over one Onion index.
// Create with New; it is ready immediately. Close stops the mutator.
type Server struct {
	cfg  Config
	snap atomic.Pointer[core.Index]
	sem  chan struct{} // admission tokens for query endpoints
	ops  chan op
	done chan struct{} // closed when the mutator exits

	mu     sync.RWMutex // guards closed + sends on ops
	closed bool

	// cache is the weight-keyed result cache (nil when disabled). Its
	// epoch is bumped by apply after every snapshot publish, before the
	// mutation callers are released — the ordering that guarantees an
	// acknowledged write is never followed by a stale cached read.
	cache *cache.Cache

	// ready gates GET /v1/healthz/ready (liveness is unconditional). A
	// freshly constructed server is ready; boot orchestration that
	// exposes the port before recovery finishes, or an operator
	// draining a node, flips it with SetReady. A shard coordinator
	// excludes not-ready replicas from query fan-out.
	ready atomic.Bool

	// Background compaction state, touched only by the mutator
	// goroutine (the compaction worker communicates through compactCh):
	// compacting marks a CompactedClone in flight, and journal records
	// every mutation published since that clone's base snapshot, so the
	// compacted index can be brought up to date by replaying it through
	// the delta buffer before it is swapped in.
	compacting bool
	journal    []wal.Mutation
	compactCh  chan foldResult

	metrics *metrics
}

// SetReady flips the readiness state reported by /v1/healthz/ready.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// New wraps ix in a serving layer. The caller must not mutate ix after
// handing it over; the server owns it from here on.
func New(ix *core.Index, cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:       c,
		sem:       make(chan struct{}, c.MaxInFlight),
		ops:       make(chan op, 4*c.MaxBatchOps),
		done:      make(chan struct{}),
		cache:     cache.New(c.CacheBytes, c.CacheShards),
		compactCh: make(chan foldResult, 1),
		metrics:   newMetrics(),
	}
	// Allocated after the server rather than with the other histograms
	// in newMetrics: there it shifted the heap layout of the query path
	// and made /v1/topn on a 100k-record index 8–13% slower (5 of 5
	// alternating runs against the layout without it).
	s.metrics.foldLatency = &telemetry.Histogram{}
	s.metrics.attachCache(s.cache)
	s.metrics.attachSnapshot(func() *core.Index { return s.snap.Load() })
	s.metrics.dim = ix.Dim()
	// Pruning configuration is applied once here; clones (deep, shallow
	// and compacted alike) inherit the mode and the rebuilt structures,
	// so every published snapshot serves with the same behavior. Shells
	// only enables: an index handed over with shell mode already on
	// keeps it under a zero Config.
	ix.SetPruningMode(c.Pruning)
	if c.Shells {
		ix.SetShellPruning(true)
	}
	s.snap.Store(ix)
	s.ready.Store(true)
	go s.mutator()
	return s
}

// Snapshot returns the current immutable index. Callers may query it
// freely and indefinitely; it is never mutated after publication.
func (s *Server) Snapshot() *core.Index { return s.snap.Load() }

// Insert submits records for insertion and waits for the batch that
// contains them to be applied (or ctx to expire — the mutation may
// still be applied after an early return).
func (s *Server) Insert(ctx context.Context, recs []core.Record) error {
	_, err := s.submit(ctx, op{insert: recs, reply: make(chan opResult, 1)})
	return err
}

// Delete submits IDs for deletion, with Insert's semantics. Every ID
// must exist; a missing ID fails the whole operation.
func (s *Server) Delete(ctx context.Context, ids []uint64) error {
	_, err := s.submit(ctx, op{del: ids, reply: make(chan opResult, 1)})
	return err
}

// DeleteIfPresent deletes the subset of ids the index currently holds
// (duplicates collapsed) and returns how many were actually removed.
// Unknown IDs are skipped, not errors — the semantics a coordinator's
// broadcast delete needs, where each shard owns only part of the set.
func (s *Server) DeleteIfPresent(ctx context.Context, ids []uint64) (int, error) {
	return s.submit(ctx, op{del: ids, delMissingOK: true, reply: make(chan opResult, 1)})
}

func (s *Server) submit(ctx context.Context, o op) (int, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	// Send while holding the read lock so Close cannot close(ops) between
	// the flag check and the send. The mutator drains continuously, so
	// the send cannot block for long.
	s.ops <- o
	s.mu.RUnlock()
	select {
	case res := <-o.reply:
		return res.applied, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Close stops accepting mutations, waits for the mutator to drain and
// apply everything already queued, and returns. Queries against
// already-loaded snapshots remain valid forever; the HTTP layer is shut
// down separately (http.Server.Shutdown).
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ops)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// mutator is the single goroutine through which every index mutation
// flows. It coalesces queued operations, applies them to a clone, and
// publishes the clone with one atomic swap. Finished background
// compactions also return here, so the snapshot chain stays linear: a
// compacted index is reconciled with the journal and published between
// mutation batches, never concurrently with one.
func (s *Server) mutator() {
	defer close(s.done)
	for {
		select {
		case o, ok := <-s.ops:
			if !ok {
				s.drainCompaction()
				return
			}
			batch := []op{o}
		coalesce:
			for len(batch) < s.cfg.MaxBatchOps {
				select {
				case o2, ok := <-s.ops:
					if !ok {
						s.apply(batch)
						s.drainCompaction()
						return
					}
					batch = append(batch, o2)
				default:
					break coalesce
				}
			}
			s.apply(batch)
		case res := <-s.compactCh:
			s.finishCompaction(res)
		}
	}
}

// drainCompaction waits out in-flight background compactions during
// shutdown and publishes them, so Close never abandons a worker's
// result and a checkpoint-on-shutdown sees the most compact snapshot.
// A loop, not a single receive: finishCompaction chains a next round
// when the journal refilled the delta past the threshold, and that
// round converges fast (no new mutations arrive after Close).
func (s *Server) drainCompaction() {
	for s.compacting {
		s.finishCompaction(<-s.compactCh)
	}
}

// apply runs one batch: clone once, apply each operation in arrival
// order, swap once, then release the callers. Replies are sent only
// after the swap so a caller that saw success can immediately read its
// own write.
//
// Each op must be individually atomic in the published snapshot, but
// InsertBatch/DeleteBatch do not guarantee that on the index itself:
// their cascades can fail after allocations and layer truncation,
// leaving the clone partially mutated. When an op errors, the clone is
// therefore discarded and rebuilt from the published base by replaying
// the ops that already succeeded — replay on identical state is
// deterministic (hull joggling is seeded), so they succeed again. The
// happy path still pays exactly one clone.
func (s *Server) apply(batch []op) {
	start := time.Now()
	deltaMode := s.cfg.DeltaThreshold >= 0
	base := s.snap.Load()
	var next *core.Index
	if deltaMode {
		// O(delta) publish: the shallow clone shares every base array and
		// mutations land in the delta buffer, so this batch costs its own
		// size, not the corpus's. The delta mutators are individually
		// atomic (validate-all-then-apply), so a failed op simply leaves
		// the clone as the previous op left it — no replay needed.
		next = base.CloneDelta()
	} else {
		next = base.Clone()
	}
	results := make([]opResult, len(batch))
	// effDel[i] is the delete set op i actually applied: for missing-ok
	// deletes, the present subset resolved against the clone being
	// mutated. The WAL logs this effective set, not the requested one —
	// logging skipped IDs would make crash replay fail on not-found.
	effDel := make([][]uint64, len(batch))
	applied := 0
	applyOp := func(ix *core.Index, i int, o op) (int, error) {
		switch {
		case len(o.insert) > 0:
			var err error
			if deltaMode {
				err = ix.InsertDelta(o.insert)
			} else {
				err = ix.InsertBatch(o.insert)
			}
			if err != nil {
				return 0, err
			}
			return len(o.insert), nil
		case len(o.del) > 0:
			ids := o.del
			if o.delMissingOK {
				ids = presentIDs(ix, o.del)
				if len(ids) == 0 {
					effDel[i] = nil
					return 0, nil
				}
			}
			var err error
			if deltaMode {
				_, err = ix.DeleteDelta(ids, false)
			} else {
				err = ix.DeleteBatch(ids)
			}
			if err != nil {
				effDel[i] = nil
				return 0, err
			}
			effDel[i] = ids
			return len(ids), nil
		}
		return 0, nil
	}
	for i, o := range batch {
		n, err := applyOp(next, i, o)
		results[i] = opResult{applied: n, err: err}
		if err == nil && n > 0 {
			applied++
		}
		s.metrics.mutationOps.Add(1)
		if err != nil {
			s.metrics.mutationErrors.Add(1)
			if !deltaMode {
				// InsertBatch/DeleteBatch cascades can fail after partial
				// mutation; discard the torn clone and replay the survivors.
				next = base.Clone()
				for j := 0; j < i; j++ {
					if results[j].err == nil {
						applyOp(next, j, batch[j])
					}
				}
			}
		}
	}
	// The WAL frames and the compaction journal both carry the batch's
	// surviving operations in their effective form.
	var muts []wal.Mutation
	if applied > 0 && (s.cfg.WAL != nil || deltaMode) {
		muts = make([]wal.Mutation, 0, applied)
		for i, o := range batch {
			if results[i].err != nil || results[i].applied == 0 {
				continue
			}
			switch {
			case len(o.insert) > 0:
				muts = append(muts, wal.Mutation{Insert: o.insert})
			case len(o.del) > 0:
				muts = append(muts, wal.Mutation{Delete: effDel[i]})
			}
		}
	}
	// Durability barrier: the batch's surviving operations are logged
	// and (per the manager's fsync mode) forced to stable storage in one
	// group commit before the snapshot becomes visible. A failed commit
	// aborts the publish — callers must never see success for a write
	// that would not be replayed after a crash.
	if applied > 0 && s.cfg.WAL != nil {
		commitStart := time.Now()
		if err := s.cfg.WAL.CommitBatch(muts, next); err != nil {
			s.metrics.walCommitErrors.Add(1)
			for i := range batch {
				if results[i].err == nil {
					results[i].err = fmt.Errorf("server: wal commit: %w", err)
				}
			}
			applied = 0
		} else {
			s.metrics.walCommits.Add(1)
			s.metrics.walCommitLatency.Observe(time.Since(commitStart))
		}
	}
	if applied > 0 {
		s.snap.Store(next)
		// Cache epoch bump strictly between the snapshot publish and the
		// caller replies: queries read the epoch before loading their
		// snapshot, so bumping after the store makes it impossible to tag
		// an old-snapshot result with the new epoch, and bumping before
		// the replies means any query admitted after a mutation was
		// acknowledged sees the new epoch and rejects every pre-swap
		// entry. See the cache package comment for the full argument.
		s.cache.Invalidate()
		s.metrics.snapshotSwaps.Add(1)
		s.metrics.rebuildNanos.Add(time.Since(start).Nanoseconds())
		s.metrics.mutateLatency.Observe(time.Since(start))
		if deltaMode {
			if s.compacting {
				// A compaction is folding an older base; journal this batch
				// so the compacted index can catch up before it is published.
				s.journal = append(s.journal, muts...)
			}
			s.maybeStartCompaction(next)
		}
	}
	for i, o := range batch {
		o.reply <- results[i]
	}
}

// maybeStartCompaction launches a background fold of cur's delta
// buffer into its layered base once the buffer crosses the threshold.
// The CompactedClone runs off the mutator goroutine — queries keep
// serving cur, mutations keep publishing O(delta) batches on top of it
// — and the result returns through compactCh to finishCompaction.
func (s *Server) maybeStartCompaction(cur *core.Index) {
	if s.compacting || s.cfg.DeltaThreshold <= 0 || cur.DeltaLen() < s.cfg.DeltaThreshold {
		return
	}
	s.compacting = true
	s.journal = nil
	start := time.Now()
	go func() {
		compacted, err := cur.CompactedClone()
		if err != nil {
			s.metrics.compactionErrors.Add(1)
			compacted = nil
		}
		s.compactCh <- foldResult{ix: compacted, start: start}
	}()
}

// foldResult is a finished background fold: the folded index (nil
// when the fold failed) and when maybeStartCompaction launched it.
type foldResult struct {
	ix    *core.Index
	start time.Time
}

// finishCompaction reconciles a finished background compaction with
// the mutations published while it ran (replayed through the delta
// buffer — the compacted base is logically identical to the journal's
// base snapshot, so replay cannot fail) and swaps it in. The publish
// bumps the cache epoch like any other swap: compaction changes Layer
// assignments, and a cached result must never mix layerings. No WAL
// frame is written — compaction changes no logical content, and crash
// recovery replays the same operations onto whatever checkpoint exists.
func (s *Server) finishCompaction(res foldResult) {
	start := time.Now()
	compacted := res.ix
	journal := s.journal
	s.journal = nil
	s.compacting = false
	if compacted == nil {
		return // compaction failed; keep serving the delta-carrying chain
	}
	for _, m := range journal {
		var err error
		switch {
		case len(m.Insert) > 0:
			err = compacted.InsertDelta(m.Insert)
		case len(m.Delete) > 0:
			_, err = compacted.DeleteDelta(m.Delete, false)
		}
		if err != nil {
			// Cannot happen while the journal invariant holds; refuse to
			// publish a snapshot that lost a mutation and keep the current
			// (correct, merely uncompacted) chain.
			s.metrics.compactionErrors.Add(1)
			return
		}
	}
	s.snap.Store(compacted)
	s.cache.Invalidate()
	s.metrics.snapshotSwaps.Add(1)
	s.metrics.compactions.Add(1)
	s.metrics.compactLatency.Observe(time.Since(start))
	s.metrics.foldLatency.Observe(time.Since(res.start))
	// The journal may have refilled the delta past the threshold while
	// the fold ran; start the next round immediately.
	s.maybeStartCompaction(compacted)
}

// presentIDs returns the IDs the index currently holds, in request
// order, duplicates collapsed — the effective set of a missing-ok
// delete.
func presentIDs(ix *core.Index, ids []uint64) []uint64 {
	out := make([]uint64, 0, len(ids))
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, ok := ix.LayerOf(id); ok {
			out = append(out, id)
		}
	}
	return out
}

// admit reserves an admission slot, reporting false on saturation.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		s.metrics.inflight.Add(1)
		return true
	default:
		s.metrics.queriesRejected.Add(1)
		return false
	}
}

func (s *Server) release() {
	<-s.sem
	s.metrics.inflight.Add(-1)
}
