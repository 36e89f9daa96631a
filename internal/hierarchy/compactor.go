package hierarchy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
)

// Compactor implements core.ClusterCompactor: the paper's Section 4
// per-cluster Onions applied to the write path. The corpus is
// partitioned once by k-means; each cluster keeps its own layered hull.
// Folding a delta buffer re-peels only the clusters that gained or
// lost records — cost bounded by delta size × cluster size, not corpus
// size — and emits the global layer partition as per-level unions
// (global layer L = concatenation over clusters of each cluster's
// layer L), which core/clustered.go proves preserves both the
// optimally-linearly-ordered property and the slab pruning bounds, so
// queries stay bit-identical to a flat rebuild.
//
// A Compactor is immutable: Fold returns a successor and shares the
// untouched per-cluster indexes with it by reference (copy-on-write),
// so a compactor can be carried across index clones and folded in the
// background against a published snapshot. Cluster centers are fixed
// at construction — inserts join the nearest center (ties to the
// lowest cluster), so assignment is deterministic and requires no
// re-clustering. Partition quality can drift as the corpus shifts;
// re-attach (Attach) after bulk changes to re-cluster.
type Compactor struct {
	dim      int
	bopt     core.Options // per-cluster build/cascade options
	centers  [][]float64
	children []*core.Index  // one Onion per cluster; nil = empty cluster
	owner    map[uint64]int // record ID -> cluster
	stats    FoldStats      // stats of the fold that produced this compactor
}

// CompactorOptions configures NewCompactor / Attach.
type CompactorOptions struct {
	// Clusters is the k-means cluster count, clamped to the corpus
	// size. 0 selects a heuristic targeting ~4096 records per cluster
	// (at least 1, at most 256).
	Clusters int
	// Build configures the per-cluster hull peels (Tol, Seed,
	// Parallelism, MaxLayers) — use the same options the flat index
	// was built with.
	Build core.Options
	// Seed feeds the k-means++ initialization. The partition is
	// deterministic for a fixed seed at every parallelism setting.
	Seed int64
	// MaxIter bounds Lloyd iterations (0 = the cluster default).
	MaxIter int
}

// FoldStats describes one Fold's work.
type FoldStats struct {
	// Clusters is the total cluster count (including empty ones).
	Clusters int
	// Refolded counts the clusters whose membership changed and were
	// re-peeled; the rest were shared by reference.
	Refolded int
	// RefoldedRecords is the total record count of the re-peeled
	// clusters after the fold — the hull work the fold actually paid
	// for, the quantity that should track delta size, not corpus size.
	RefoldedRecords int
	// Inserts and Deletes are the delta sizes folded.
	Inserts, Deletes int
}

// DefaultClusters is the heuristic cluster count for n records:
// n/4096, clamped to [1, 256].
func DefaultClusters(n int) int {
	k := n / 4096
	if k < 1 {
		k = 1
	}
	if k > 256 {
		k = 256
	}
	return k
}

// NewCompactor partitions recs with k-means and peels one Onion per
// cluster. The record slice is not retained; vectors are shared.
func NewCompactor(recs []core.Record, opt CompactorOptions) (*Compactor, error) {
	if len(recs) == 0 {
		return nil, errors.New("hierarchy: compactor needs at least one record")
	}
	dim := len(recs[0].Vector)
	if dim == 0 {
		return nil, errors.New("hierarchy: zero-dimensional records")
	}
	k := opt.Clusters
	if k <= 0 {
		k = DefaultClusters(len(recs))
	}
	if k > len(recs) {
		k = len(recs)
	}
	pts := make([][]float64, len(recs))
	for i, r := range recs {
		if len(r.Vector) != dim {
			return nil, fmt.Errorf("hierarchy: record %d has dimension %d, want %d", i, len(r.Vector), dim)
		}
		pts[i] = r.Vector
	}
	km, err := cluster.KMeans(pts, k, cluster.Options{
		Seed:    opt.Seed,
		MaxIter: opt.MaxIter,
		Workers: opt.Build.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: compactor k-means: %w", err)
	}
	c := &Compactor{
		dim:      dim,
		bopt:     opt.Build,
		centers:  km.Centers,
		children: make([]*core.Index, k),
		owner:    make(map[uint64]int, len(recs)),
	}
	groups := make([][]core.Record, k)
	for i, r := range recs {
		cl := km.Labels[i]
		if _, dup := c.owner[r.ID]; dup {
			return nil, fmt.Errorf("hierarchy: duplicate record ID %d", r.ID)
		}
		c.owner[r.ID] = cl
		groups[cl] = append(groups[cl], r)
	}
	for cl, g := range groups {
		if len(g) == 0 {
			continue
		}
		child, err := core.Build(g, c.bopt)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: compactor cluster %d: %w", cl, err)
		}
		c.children[cl] = child
	}
	c.stats = FoldStats{Clusters: k}
	return c, nil
}

// Attach builds a compactor over the index's layered base records and
// attaches it, so subsequent Compact/CompactedClone calls fold
// per-cluster. A pending delta stays pending: the compactor describes
// the base (tombstoned records included), and the next fold applies
// the delta to it — as after a restart whose log replayed into the
// delta.
func Attach(ix *core.Index, opt CompactorOptions) (*Compactor, error) {
	if opt.Build.Parallelism == 0 {
		opt.Build.Parallelism = ix.Parallelism()
	}
	var base []core.Record
	for k := 0; k < ix.NumLayers(); k++ {
		base = append(base, ix.Layer(k)...)
	}
	c, err := NewCompactor(base, opt)
	if err != nil {
		return nil, err
	}
	if err := ix.SetClusterCompactor(c); err != nil {
		return nil, err
	}
	return c, nil
}

// assignCluster returns the nearest fixed center (ties to the lowest
// cluster index) — the deterministic home of an inserted record.
func (c *Compactor) assignCluster(v []float64) int {
	best, bestD := 0, geom.Dist2(v, c.centers[0])
	for cl := 1; cl < len(c.centers); cl++ {
		if dd := geom.Dist2(v, c.centers[cl]); dd < bestD {
			best, bestD = cl, dd
		}
	}
	return best
}

// Len reports the total record count across clusters (the
// core.ClusterCompactor consistency contract).
func (c *Compactor) Len() int { return len(c.owner) }

// NumClusters returns the cluster count, including empty clusters.
func (c *Compactor) NumClusters() int { return len(c.children) }

// Stats returns the FoldStats of the fold that produced this
// compactor (zero-valued except Clusters for a fresh NewCompactor).
func (c *Compactor) Stats() FoldStats { return c.stats }

// Fold implements core.ClusterCompactor: inserts join their nearest
// cluster, deletes leave theirs, only affected clusters re-peel, and
// the successor shares every untouched cluster by reference. The
// receiver is never modified, so a fold can run in the background
// against a compactor still serving published snapshots.
func (c *Compactor) Fold(inserts []core.Record, deletes []uint64) (core.ClusterCompactor, [][]core.Record, error) {
	insBy := make(map[int][]core.Record)
	for _, r := range inserts {
		if len(r.Vector) != c.dim {
			return nil, nil, fmt.Errorf("hierarchy: fold insert %d has dimension %d, want %d", r.ID, len(r.Vector), c.dim)
		}
		cl := c.assignCluster(r.Vector)
		insBy[cl] = append(insBy[cl], r)
	}
	delBy := make(map[int][]uint64)
	for _, id := range deletes {
		cl, ok := c.owner[id]
		if !ok {
			return nil, nil, fmt.Errorf("hierarchy: fold delete of unknown record %d", id)
		}
		delBy[cl] = append(delBy[cl], id)
	}
	affected := make([]int, 0, len(insBy)+len(delBy))
	seen := make(map[int]bool, len(insBy)+len(delBy))
	for cl := range insBy {
		seen[cl] = true
		affected = append(affected, cl)
	}
	for cl := range delBy {
		if !seen[cl] {
			affected = append(affected, cl)
		}
	}
	sort.Ints(affected)

	next := &Compactor{
		dim:      c.dim,
		bopt:     c.bopt,
		centers:  c.centers,
		children: append([]*core.Index(nil), c.children...),
		owner:    make(map[uint64]int, len(c.owner)+len(inserts)-len(deletes)),
		stats: FoldStats{
			Clusters: len(c.children),
			Refolded: len(affected),
			Inserts:  len(inserts),
			Deletes:  len(deletes),
		},
	}
	for id, cl := range c.owner {
		next.owner[id] = cl
	}
	for _, id := range deletes {
		delete(next.owner, id)
	}
	for cl, recs := range insBy {
		for _, r := range recs {
			if _, dup := next.owner[r.ID]; dup {
				return nil, nil, fmt.Errorf("hierarchy: fold insert of duplicate record %d", r.ID)
			}
			next.owner[r.ID] = cl
		}
	}
	for _, cl := range affected {
		child, err := refoldCluster(c.children[cl], delBy[cl], insBy[cl], c.bopt)
		if err != nil {
			return nil, nil, fmt.Errorf("hierarchy: fold cluster %d: %w", cl, err)
		}
		next.children[cl] = child
		if child != nil {
			next.stats.RefoldedRecords += child.Len()
		}
	}
	return next, next.unionLayers(), nil
}

// refoldCluster applies one cluster's deletes and inserts to a private
// clone of its Onion via the Section 3.4 batch cascades — hull work
// bounded by the cluster, not the corpus. A cascade failure (hull
// degeneracy past the joggle fallback) falls back to re-peeling the
// cluster from scratch, so a fold only fails if a ground-up Build of
// the cluster's records does. Returns nil for an emptied cluster.
func refoldCluster(child *core.Index, deletes []uint64, inserts []core.Record, bopt core.Options) (*core.Index, error) {
	if child == nil {
		if len(inserts) == 0 {
			return nil, nil
		}
		return core.Build(inserts, bopt)
	}
	nc := child.Clone()
	err := nc.DeleteBatch(deletes)
	if err == nil && len(inserts) > 0 {
		err = nc.InsertBatch(inserts)
	}
	if err == nil {
		if nc.Len() == 0 {
			return nil, nil
		}
		return nc, nil
	}
	// Rebuild fallback: survivors plus inserts, peeled from scratch.
	dead := make(map[uint64]bool, len(deletes))
	for _, id := range deletes {
		dead[id] = true
	}
	recs := make([]core.Record, 0, child.Len()-len(deletes)+len(inserts))
	for _, r := range child.Records() {
		if !dead[r.ID] {
			recs = append(recs, r)
		}
	}
	recs = append(recs, inserts...)
	if len(recs) == 0 {
		return nil, nil
	}
	return core.Build(recs, bopt)
}

// unionLayers emits the global layer partition: level L is the
// concatenation, in cluster order, of every cluster's layer L. No
// layer is empty (level L exists because some cluster has an L-th
// layer), which is what core.FromLayers requires.
func (c *Compactor) unionLayers() [][]core.Record {
	depth := 0
	for _, ch := range c.children {
		if ch != nil && ch.NumLayers() > depth {
			depth = ch.NumLayers()
		}
	}
	out := make([][]core.Record, 0, depth)
	for l := 0; l < depth; l++ {
		var layer []core.Record
		for _, ch := range c.children {
			if ch != nil && l < ch.NumLayers() {
				layer = append(layer, ch.Layer(l)...)
			}
		}
		out = append(out, layer)
	}
	return out
}
