// Package hierarchy implements the hierarchical Onion index of the
// paper's Section 4, which resolves the global-vs-local query dilemma:
// a single Onion over the whole data set answers global top-N queries
// well but cannot exploit constraints ("top-10 colleges in the
// northwest"), while per-cluster Onions answer local queries well but
// need coordination for global ones.
//
// The hierarchy keeps one child Onion per cluster (cluster = categorical
// attribute value or spatial partition) and builds the parent Onion from
// only the outermost layer of every child — the paper's low-overhead
// alternative to duplicating all records at the top level.
//
// The paper's global-query procedure is implemented verbatim and is, in
// fact, exact: a child can contribute to the true top-N only if fewer
// than N records beat the child's best record; the child's best record
// is in the parent's record set (it lies on the child's outermost
// layer), so it then necessarily appears in the parent's top-N and the
// child is identified and queried. The exhaustive all-children merge is
// also provided as the ablation baseline (DESIGN.md §4.4).
package hierarchy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/topk"
)

// Child is one cluster with its own Onion index.
type Child struct {
	Label string
	Index *core.Index
}

// Hierarchy is a two-level Onion index.
type Hierarchy struct {
	dim      int
	children []Child
	byLabel  map[string]int
	parent   *core.Index
	origin   map[uint64]int // parent record ID -> child ordinal
}

// Stats aggregates the work of a hierarchical query.
type Stats struct {
	// Parent is the work done in the parent Onion (zero for local
	// queries that bypass it).
	Parent core.Stats
	// Children is the summed work done in child Onions.
	Children core.Stats
	// ChildrenQueried counts how many child Onions were searched.
	ChildrenQueried int
}

// Total returns combined evaluation counts.
func (s Stats) Total() core.Stats {
	return core.Stats{
		RecordsEvaluated: s.Parent.RecordsEvaluated + s.Children.RecordsEvaluated,
		LayersAccessed:   s.Parent.LayersAccessed + s.Children.LayersAccessed,
	}
}

// Build constructs child Onions for each labeled record group and the
// parent Onion from the children's outermost layers. Record IDs must be
// unique across all groups.
func Build(groups map[string][]core.Record, opt core.Options) (*Hierarchy, error) {
	if len(groups) == 0 {
		return nil, errors.New("hierarchy: no groups")
	}
	labels := make([]string, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	h := &Hierarchy{byLabel: make(map[string]int), origin: make(map[uint64]int)}
	var parentRecs []core.Record
	seen := make(map[uint64]bool)
	for _, label := range labels {
		recs := groups[label]
		if len(recs) == 0 {
			continue
		}
		if h.dim == 0 {
			h.dim = len(recs[0].Vector)
		}
		for _, r := range recs {
			if seen[r.ID] {
				return nil, fmt.Errorf("hierarchy: record ID %d appears in multiple groups", r.ID)
			}
			seen[r.ID] = true
		}
		ix, err := core.Build(recs, opt)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: child %q: %w", label, err)
		}
		ord := len(h.children)
		h.children = append(h.children, Child{Label: label, Index: ix})
		h.byLabel[label] = ord
		for _, r := range ix.Layer(0) {
			parentRecs = append(parentRecs, r)
			h.origin[r.ID] = ord
		}
	}
	if len(h.children) == 0 {
		return nil, errors.New("hierarchy: all groups empty")
	}
	parent, err := core.Build(parentRecs, opt)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: parent: %w", err)
	}
	h.parent = parent
	return h, nil
}

// BuildFromLabels is a convenience constructor for points with a
// parallel label slice (e.g. the output of package cluster).
func BuildFromLabels(recs []core.Record, labels []string, opt core.Options) (*Hierarchy, error) {
	if len(recs) != len(labels) {
		return nil, errors.New("hierarchy: records and labels differ in length")
	}
	groups := make(map[string][]core.Record)
	for i, r := range recs {
		groups[labels[i]] = append(groups[labels[i]], r)
	}
	return Build(groups, opt)
}

// Labels returns the child labels in deterministic (sorted) order.
func (h *Hierarchy) Labels() []string {
	out := make([]string, len(h.children))
	for i, c := range h.children {
		out[i] = c.Label
	}
	return out
}

// Child returns the Onion index of one cluster.
func (h *Hierarchy) Child(label string) (*core.Index, bool) {
	ord, ok := h.byLabel[label]
	if !ok {
		return nil, false
	}
	return h.children[ord].Index, true
}

// Parent returns the parent Onion (outermost layers of all children).
func (h *Hierarchy) Parent() *core.Index { return h.parent }

// Dim returns the attribute dimensionality.
func (h *Hierarchy) Dim() int { return h.dim }

// Len returns the total number of records across children.
func (h *Hierarchy) Len() int {
	n := 0
	for _, c := range h.children {
		n += c.Index.Len()
	}
	return n
}

// TopN answers a global query with the paper's Section 4 procedure:
// query the parent, identify the originating children, query only
// those, and merge.
func (h *Hierarchy) TopN(weights []float64, n int) ([]core.Result, Stats, error) {
	var st Stats
	if len(weights) != h.dim {
		return nil, st, errors.New("hierarchy: weight dimension mismatch")
	}
	if n <= 0 {
		return nil, st, errors.New("hierarchy: non-positive n")
	}
	pRes, pStats, err := h.parent.TopN(weights, n)
	if err != nil {
		return nil, st, err
	}
	st.Parent = pStats
	// Locate the children the parent's top-N originated from.
	need := make([]bool, len(h.children))
	for _, r := range pRes {
		need[h.origin[r.ID]] = true
	}
	merged, cStats, queried, err := h.mergeChildren(weights, n, need)
	if err != nil {
		return nil, st, err
	}
	st.Children = cStats
	st.ChildrenQueried = queried
	return merged, st, nil
}

// TopNExhaustive answers a global query by searching every child and
// merging — the storage-doubling alternative the paper argues against,
// kept as the ablation baseline.
func (h *Hierarchy) TopNExhaustive(weights []float64, n int) ([]core.Result, Stats, error) {
	var st Stats
	if len(weights) != h.dim {
		return nil, st, errors.New("hierarchy: weight dimension mismatch")
	}
	if n <= 0 {
		return nil, st, errors.New("hierarchy: non-positive n")
	}
	need := make([]bool, len(h.children))
	for i := range need {
		need[i] = true
	}
	merged, cStats, queried, err := h.mergeChildren(weights, n, need)
	if err != nil {
		return nil, st, err
	}
	st.Children = cStats
	st.ChildrenQueried = queried
	return merged, st, nil
}

// TopNWhere answers a local (constrained) query over the children whose
// label satisfies pred, exactly — the case a single global Onion
// handles poorly (paper Section 4's motivating dilemma).
func (h *Hierarchy) TopNWhere(weights []float64, n int, pred func(label string) bool) ([]core.Result, Stats, error) {
	var st Stats
	if len(weights) != h.dim {
		return nil, st, errors.New("hierarchy: weight dimension mismatch")
	}
	if n <= 0 {
		return nil, st, errors.New("hierarchy: non-positive n")
	}
	need := make([]bool, len(h.children))
	any := false
	for i, c := range h.children {
		if pred(c.Label) {
			need[i] = true
			any = true
		}
	}
	if !any {
		return nil, st, nil
	}
	merged, cStats, queried, err := h.mergeChildren(weights, n, need)
	if err != nil {
		return nil, st, err
	}
	st.Children = cStats
	st.ChildrenQueried = queried
	return merged, st, nil
}

// mergeChildren queries each flagged child for its top-n and merges the
// streams into one global top-n, ordered by the package topk total
// order on (score, record ID): records that tie across children come
// back ID-ascending, as from one index over their union.
func (h *Hierarchy) mergeChildren(weights []float64, n int, need []bool) ([]core.Result, core.Stats, int, error) {
	var agg core.Stats
	queried := 0
	var all []core.Result
	for i, c := range h.children {
		if !need[i] {
			continue
		}
		queried++
		res, stats, err := c.Index.TopN(weights, n)
		if err != nil {
			return nil, agg, queried, err
		}
		agg.RecordsEvaluated += stats.RecordsEvaluated
		agg.LayersAccessed += stats.LayersAccessed
		all = append(all, res...)
	}
	sort.Slice(all, func(a, b int) bool {
		return topk.ResultGreater(all[a].Score, all[a].ID, all[b].Score, all[b].ID)
	})
	return all[:min(n, len(all))], agg, queried, nil
}
