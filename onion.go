// Package onion is a Go implementation of the Onion technique
// (Chang, Bergman, Castelli, Li, Lo, Smith: "The Onion Technique:
// Indexing for Linear Optimization Queries", SIGMOD 2000): an index for
// top-N linear optimization queries
//
//	max_{topN}  a1*x1 + a2*x2 + … + ad*xd
//
// over records with d numerical attributes, where the weight vector
// (a1…ad) is known only at query time.
//
// The index partitions the records into layered convex hulls: layer 1
// is the vertex set of the convex hull of all records, layer 2 the
// vertex set of the hull of the rest, and so on, like the peels of an
// onion. Because a linear function over a convex region is maximized at
// a hull vertex, a top-N query never needs to look below the N-th
// layer, which makes small-N queries orders of magnitude cheaper than a
// sequential scan.
//
// # Quick start
//
//	ix, err := onion.Build([]onion.Record{
//	        {ID: 1, Vector: []float64{9.1, 0.82, 23000}},
//	        {ID: 2, Vector: []float64{8.7, 0.91, 31000}},
//	        // …
//	})
//	top, err := ix.TopN([]float64{0.6, 0.3, -0.1}, 10)
//
// Minimization queries negate the weights (Minimize does it for you).
// Progressive retrieval — results streamed strictly in rank order, pay
// only for what you consume — is available through Search. On-disk
// indexes with the paper's paged layout are created with Save and
// queried in place with OpenDisk. Hierarchies of per-cluster Onions for
// constrained ("local") queries are built with BuildHierarchy.
package onion

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/storage"
)

// Record pairs an application-level ID with its attribute vector.
type Record = core.Record

// Result is one ranked answer: the record ID, its achieved score, and
// the 0-based Onion layer it came from (-1 when unknown).
type Result = core.Result

// QueryStats reports the work a query performed: records evaluated and
// layers accessed (the two quantities the paper's evaluation tables
// track), plus layers skipped by bound-based pruning.
type QueryStats = core.Stats

// ErrNonFiniteWeight is wrapped by query errors whose weight vector
// carries a NaN or ±Inf component; test with errors.Is.
var ErrNonFiniteWeight = core.ErrNonFiniteWeight

// Options tunes index construction. The zero value is ready to use.
type Options struct {
	// Tol overrides the geometric tolerance (0 = automatic, derived
	// from the coordinate scale).
	Tol float64
	// MaxLayers stops peeling after this many layers, placing all
	// remaining records in one final catch-all layer. Queries stay
	// correct; deep-N pruning degrades. 0 = unbounded.
	MaxLayers int
	// Seed makes degenerate-input perturbation fallbacks reproducible.
	Seed int64
	// Progress, when non-nil, is invoked after each layer is built.
	Progress func(layer, assigned, total int)
	// Parallelism bounds the worker goroutines used by hull
	// construction/maintenance scans and by query scoring over large
	// layers. 0 = one worker per CPU (the default), 1 = fully
	// sequential, n = exactly n. The index produced is identical at
	// every setting: parallel scans merge deterministically, so layer
	// membership, layer order, and joggle decisions never depend on the
	// worker count.
	Parallelism int
	// HierarchicalCompaction attaches a per-cluster compactor (the
	// paper's Section 4 hierarchy applied to the write path) after the
	// build: the corpus is partitioned by k-means and every Compact /
	// CompactedClone re-peels only the clusters whose membership
	// changed, so fold cost is bounded by delta and cluster size
	// instead of corpus size. Query answers are bit-identical either
	// way. Legacy structural maintenance (Insert/Delete/Update and the
	// batch cascades) detaches the compactor; it is an acceleration
	// structure, never load-bearing for correctness.
	HierarchicalCompaction bool
	// CompactionClusters overrides the k-means cluster count used by
	// HierarchicalCompaction (0 = a heuristic targeting ~4096 records
	// per cluster, capped at 256).
	CompactionClusters int
	// Shells enables the paper's Section 6 spherical shells as a
	// first-class index mode: each layer's columnar slab is ordered by
	// angular bucket around the layer centroid and queries evaluate
	// only the buckets whose score bound can still beat the current
	// top-N floor. Results are bit-identical with shells on or off —
	// only the work statistics change (see
	// QueryStats.RecordsSkippedByShells). Maintenance and compaction
	// rebuild the tables of every layer they re-peel; SetShellPruning
	// toggles the mode on an existing index.
	Shells bool
}

// Index is an Onion index over a set of records. Queries
// (TopN/Minimize/Search) are safe for concurrent use; maintenance
// (Insert/Delete/Update) is not and invalidates concurrent queries.
type Index struct {
	ix *core.Index
	// cache, when non-nil, memoizes TopN results keyed by exact weight
	// bits (EnableResultCache); maintenance bumps its epoch so stale
	// entries are never served.
	cache *cache.Cache
}

// Build constructs the layered convex hull over the records (paper
// Section 3.1). Record IDs must be unique and all vectors must share
// one dimension. Build is O(layers × n) in distance computations and is
// by far the most expensive operation — the paper's intended trade:
// build rarely, query fast.
func Build(records []Record, opt Options) (*Index, error) {
	copt := core.Options{
		Tol:         opt.Tol,
		MaxLayers:   opt.MaxLayers,
		Seed:        opt.Seed,
		Progress:    opt.Progress,
		Parallelism: opt.Parallelism,
		Shells:      opt.Shells,
	}
	ix, err := core.Build(records, copt)
	if err != nil {
		return nil, err
	}
	if opt.HierarchicalCompaction {
		copt.Progress = nil // per-cluster peels are small; no progress spam
		if _, err := hierarchy.Attach(ix, hierarchy.CompactorOptions{
			Clusters: opt.CompactionClusters,
			Build:    copt,
			Seed:     opt.Seed,
		}); err != nil {
			return nil, err
		}
	}
	return &Index{ix: ix}, nil
}

// TopN returns the n records with the largest weighted attribute sums,
// in descending score order.
func (x *Index) TopN(weights []float64, n int) ([]Result, error) {
	res, _, err := x.TopNStats(weights, n)
	return res, err
}

// TopNStats is TopN plus evaluation statistics. With a result cache
// enabled (EnableResultCache), a repeated weight vector is answered
// from the cache — bit-identically, since the walk is deterministic and
// tie-break-stable — and the reported stats describe the walk that
// originally produced the entry.
func (x *Index) TopNStats(weights []float64, n int) ([]Result, QueryStats, error) {
	if x.cache != nil && n > 0 {
		res, st, _, err := x.cache.GetOrCompute(core.WeightKey(weights), n, x.cache.Epoch(),
			func() ([]Result, QueryStats, error) { return x.ix.TopN(weights, n) })
		if err != nil {
			return nil, st, err
		}
		// The cache owns its entry; callers own what TopN returns. Copy on
		// the way out so a caller mutating its results cannot poison the
		// cached ranking.
		out := make([]Result, len(res))
		copy(out, res)
		return out, st, nil
	}
	return x.ix.TopN(weights, n)
}

// EnableResultCache attaches a byte-bounded LRU that memoizes TopN
// results by the exact bits of the weight vector, with prefix serving
// (a cached top-K answers any n ≤ K) and epoch invalidation on every
// maintenance operation — a cached result can never survive a mutation.
// maxBytes <= 0 disables the cache. The cache sits behind TopN /
// TopNStats / Minimize; Search streams, TopNBatch and filtered queries
// bypass it. Not safe to call concurrently with queries.
func (x *Index) EnableResultCache(maxBytes int64) {
	x.cache = cache.New(maxBytes, 0)
}

// CacheStats reports the result cache's counters (all zero when no
// cache is enabled).
type CacheStats struct {
	Hits          int64
	Misses        int64
	Coalesced     int64
	Evictions     int64
	Invalidations int64
	Bytes         int64
}

// CacheStats returns a snapshot of the result cache's telemetry.
func (x *Index) CacheStats() CacheStats {
	ct := x.cache.Counters()
	return CacheStats{
		Hits:          ct.Hits,
		Misses:        ct.Misses,
		Coalesced:     ct.Coalesced,
		Evictions:     ct.Evictions,
		Invalidations: ct.Invalidations,
		Bytes:         ct.Bytes,
	}
}

// invalidate retires every cached ranking a mutation may have made
// stale: the result cache's epoch bump drops them all at once (entries
// are collected lazily).
func (x *Index) invalidate() {
	x.cache.Invalidate()
}

// TopNBatch answers many top-N queries, returning results and stats
// positionally, each exactly what a per-query TopN call would return.
// One invalid weight vector fails the entire batch before any
// evaluation.
func (x *Index) TopNBatch(weightsList [][]float64, n int) ([][]Result, []QueryStats, error) {
	return x.ix.TopNBatch(weightsList, n)
}

// Minimize returns the n records with the smallest weighted sums (the
// paper's sign-flip reduction to maximization). Scores in the results
// are the original (un-negated) weighted sums, ascending.
func (x *Index) Minimize(weights []float64, n int) ([]Result, error) {
	neg := make([]float64, len(weights))
	for i, w := range weights {
		neg[i] = -w
	}
	res, _, err := x.TopNStats(neg, n)
	if err != nil {
		return nil, err
	}
	for i := range res {
		res[i].Score = -res[i].Score
	}
	return res, nil
}

// TopNFiltered answers a constrained query on the flat index by
// streaming the global ranking and keeping records that satisfy pred —
// the paper's "expand the search to top-M" behavior for local queries
// (Section 4). The returned stats quantify the expansion; when
// constraints align with clusters, BuildHierarchy answers them far
// more cheaply.
func (x *Index) TopNFiltered(weights []float64, n int, pred func(id uint64, vector []float64) bool) ([]Result, QueryStats, error) {
	return x.ix.TopNFiltered(weights, n, pred)
}

// TopNInRanges is TopNFiltered specialized to per-attribute intervals:
// ranges maps attribute index to an inclusive [lo, hi] bound.
func (x *Index) TopNInRanges(weights []float64, n int, ranges map[int][2]float64) ([]Result, QueryStats, error) {
	return x.ix.TopNInRanges(weights, n, ranges)
}

// Search starts a progressive query: results come back one at a time in
// exact rank order, so the first answer arrives after evaluating only
// the outermost layer and abandoning the stream early costs nothing
// (paper Section 3.3). limit <= 0 streams the complete ranking.
func (x *Index) Search(weights []float64, limit int) *Stream {
	s, err := x.ix.NewSearcherChecked(weights, limit)
	return &Stream{s: s, err: err}
}

// SearchContext is Search bound to a context: when ctx is cancelled or
// its deadline passes, the stream stops before evaluating any further
// layer and Stream.Err reports the cause. This is the query shape a
// network server wants — an abandoned client stops costing work.
func (x *Index) SearchContext(ctx context.Context, weights []float64, limit int) *Stream {
	s, err := x.ix.NewSearcherChecked(weights, limit)
	if s != nil {
		s.WithContext(ctx)
	}
	return &Stream{s: s, err: err}
}

// Clone returns an independent deep copy of the index: maintenance on
// the clone never affects the original (attribute vectors, which are
// immutable, are shared). This is the substrate for snapshot-isolated
// serving — apply a batch of changes to a clone, then atomically swap
// it in — as cmd/onionserve does. The shell-pruning mode
// (Options.Shells / SetShellPruning) carries over; the result cache
// does not.
func (x *Index) Clone() *Index {
	return &Index{ix: x.ix.Clone()}
}

// SetParallelism adjusts the worker bound used by subsequent
// maintenance hulls and large-layer query scoring (0 = one worker per
// CPU, 1 = sequential, n = exactly n). Results are identical at every
// setting. Indexes loaded from disk default to 0 (all cores); use this
// to cap the CPU share instead. Not safe to call concurrently with
// queries or maintenance.
func (x *Index) SetParallelism(n int) { x.ix.SetParallelism(n) }

// Insert adds a record, cascading layer repairs inwards (paper Section
// 3.4).
func (x *Index) Insert(rec Record) error {
	x.invalidate()
	return x.ix.Insert(rec)
}

// InsertBatch adds several records with a single cascade.
func (x *Index) InsertBatch(recs []Record) error {
	x.invalidate()
	return x.ix.InsertBatch(recs)
}

// Delete removes the record with the given ID, promoting inner records
// outwards as needed.
func (x *Index) Delete(id uint64) error {
	x.invalidate()
	return x.ix.Delete(id)
}

// DeleteBatch removes several records with a single cascade — the
// batch maintenance the paper recommends for bulk changes. Unknown or
// duplicated IDs fail the whole batch before any mutation.
func (x *Index) DeleteBatch(ids []uint64) error {
	x.invalidate()
	return x.ix.DeleteBatch(ids)
}

// Update replaces a record's attribute vector (delete + insert).
func (x *Index) Update(id uint64, vector []float64) error {
	x.invalidate()
	return x.ix.Update(id, vector)
}

// PruningMode selects whether the query path skips work by bounds.
// Both modes return bit-identical results; they differ only in the work
// a query reports having done, which is what the paper-faithful
// ablations measure.
type PruningMode = core.PruningMode

const (
	// PruneAll enables layer pruning and, when shell tables are present
	// (Options.Shells / SetShellPruning), spherical-shell intra-layer
	// pruning too. The default. Comparing an index with shells against
	// one without, both under PruneAll, isolates the shells'
	// contribution.
	PruneAll = core.PruneAll
	// PruneNothing evaluates every record of every accessed layer, the
	// paper-faithful baseline.
	PruneNothing = core.PruneNothing
)

// ParsePruningMode parses "all" or "none" (the String forms) into a
// PruningMode; the empty string means PruneAll.
func ParsePruningMode(s string) (PruningMode, error) { return core.ParsePruningMode(s) }

// SetPruningMode selects the bound-based pruning behavior of subsequent
// queries. Not safe to call concurrently with queries.
func (x *Index) SetPruningMode(m PruningMode) { x.ix.SetPruningMode(m) }

// PruningMode reports the current pruning mode.
func (x *Index) PruningMode() PruningMode { return x.ix.PruningMode() }

// SetShellPruning enables or disables the spherical-shell index mode
// (Options.Shells, after the fact): on bucket-orders each layer's
// columnar slab around its centroid and builds the per-bucket bound
// tables; off drops them. Results are bit-identical either way. Not
// safe to call concurrently with queries.
func (x *Index) SetShellPruning(on bool) { x.ix.SetShellPruning(on) }

// ShellPruning reports whether the spherical-shell index mode is
// enabled.
func (x *Index) ShellPruning() bool { return x.ix.ShellPruning() }

// EnableHierarchicalCompaction attaches a per-cluster compactor to an
// already-built index (the Options.HierarchicalCompaction knob, after
// the fact — useful for indexes obtained via Load or Clone). clusters
// is the k-means partition size; 0 picks a heuristic. It refuses an
// index with pending delta mutations: Compact first, then attach.
func (x *Index) EnableHierarchicalCompaction(clusters int) error {
	_, err := hierarchy.Attach(x.ix, hierarchy.CompactorOptions{Clusters: clusters})
	return err
}

// HierarchicalCompaction reports whether a per-cluster compactor is
// currently attached (legacy structural maintenance detaches it).
func (x *Index) HierarchicalCompaction() bool { return x.ix.ClusterCompactor() != nil }

// Save writes the index to path in the paged layout of the paper
// (Section 3.1): each layer in consecutive 4 KB pages holding its
// vectors, 8·d bytes per record, after a directory of layer extents,
// pruning bounds and, with Options.Shells, shell tables (plus the
// layer's canonical positions, which shells reorder). The record IDs
// follow the layers. Pending delta mutations are folded into the saved
// layers; the index itself is unchanged.
func (x *Index) Save(path string) error {
	return storage.Write(path, x.ix)
}

// Load reads an index file written by Save back into a fully mutable
// in-memory index, preserving the stored layer partition exactly (no
// re-peeling) and the shell mode. Files from before the current format
// load too; Save rewrites them in it.
func Load(path string) (*Index, error) {
	ix, err := storage.Load(path)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// Dim returns the number of numerical attributes.
func (x *Index) Dim() int { return x.ix.Dim() }

// Len returns the number of records.
func (x *Index) Len() int { return x.ix.Len() }

// NumLayers returns the number of convex-hull layers.
func (x *Index) NumLayers() int { return x.ix.NumLayers() }

// LayerSizes returns the record count of each layer, outermost first.
func (x *Index) LayerSizes() []int { return x.ix.LayerSizes() }

// LayerOf returns the 0-based layer containing the record, if present.
func (x *Index) LayerOf(id uint64) (int, bool) { return x.ix.LayerOf(id) }

// Records returns all records currently in the index.
func (x *Index) Records() []Record { return x.ix.Records() }

// TraceEvent narrates one step of query evaluation (layer retrieved,
// candidate kept, result finalized) — the events of the paper's worked
// example in Section 3.2 / Figure 4. See examples/figure4.
type TraceEvent = core.TraceEvent

// Stream is a progressive result iterator. See Index.Search.
type Stream struct {
	s *core.Searcher
	// err records why the stream could not start (invalid weights); a
	// dead stream returns no results and reports the reason through Err
	// instead of silently yielding nothing.
	err error
}

// Trace attaches a step-by-step evaluation callback to the stream and
// returns the stream. Must be called before the first Next.
func (st *Stream) Trace(fn func(TraceEvent)) *Stream {
	if st.s != nil {
		st.s.Trace(fn)
	}
	return st
}

// Next returns the next result in rank order; ok is false once the
// limit is reached or the index exhausted.
func (st *Stream) Next() (Result, bool) {
	if st.s == nil {
		return Result{}, false
	}
	return st.s.Next()
}

// Stats returns the work performed so far.
func (st *Stream) Stats() QueryStats {
	if st.s == nil {
		return QueryStats{}
	}
	return st.s.Stats()
}

// Err returns the error that stopped the stream — the weight-validation
// failure that prevented it from starting (wrapping ErrNonFiniteWeight
// for NaN/Inf components), or the context error that cancelled a
// SearchContext stream. It is nil when the stream ended by limit or
// exhaustion (or is still going).
func (st *Stream) Err() error {
	if st.s == nil {
		return st.err
	}
	return st.s.Err()
}
