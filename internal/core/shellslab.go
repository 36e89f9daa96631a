package core

import (
	"math"

	"repro/internal/shellgeom"
	"repro/internal/topk"
)

// Spherical-shell intra-layer pruning — the paper's Section 6 proposal
// (Figure 11) integrated into the columnar query path. Evaluating a
// whole Onion layer finds both the maximum and the minimum in the query
// direction, and one of them is always wasted; the paper suggests
// expressing each layer's records in polar coordinates around a common
// center and, per query, evaluating only records whose angle lies near
// the weight direction — about half the layer on uniform data.
//
// This file makes it a first-class mode of the core index — the bucket
// layout lives in internal/shellgeom — so every serving path (solo
// walk, progressive search, TopNBatch, the delta merge, maintenance and
// hierarchical compaction folds) gets the saving without leaving the
// bit-identical columnar machinery:
//
//   - Whenever a layer's slab is built in shell mode, its rows are
//     reordered by angular bucket around the layer centroid, so a
//     bucket is one contiguous run of rows the strided kernels can
//     stream through. Reordering is sound because the slab carries its
//     own ids/pos arrays and every collector in the query path orders
//     by the total order (score descending, position ascending), never
//     by offer order — the selected top-k of a layer is a set, not a
//     sequence.
//   - Each bucket carries a sound score upper bound: the polar cone
//     bound w·x ≤ w·c + rmax·‖w‖·cos(max(0, ∠(w,g) − α)) of the paper,
//     intersected with the bucket-local Cauchy–Schwarz and axis-box
//     bounds the layer-level pruning already uses.
//   - At query time buckets are visited in decreasing bound order and
//     the scan stops once the layer's top-keep collector is full and
//     the next bound is strictly below its threshold: no skipped
//     record can enter the layer's top-keep, even on an exact tie,
//     because the bound is inflated by an explicit FP slack (so
//     bound < threshold implies member score < threshold strictly).
//
// Results are bit-identical to the unordered walk at every worker
// count; only the work statistics change, which is what
// Stats.RecordsSkippedByShells reports.

// shellAngSlack absorbs every rounding error in the angular part of the
// cone bound (normalized dot product, cos/sin composition). The true
// numerical error is bounded by a few (d+4)·2⁻⁵² — see DESIGN.md §14 —
// so 2⁻⁴⁰ covers it by three orders of magnitude while costing only
// ~1e-12 of bound tightness, far below any margin that decides a prune.
const shellAngSlack = 0x1p-40

// shellBucket is one contiguous angular run of a bucket-ordered slab.
type shellBucket struct {
	lo, hi  int       // row range [lo, hi) in the layer's slab
	axis    []float64 // unit cone axis g (shared with the Geometry)
	rmax    float64   // largest member radius around the layer center
	maxNorm float64   // bucket-local Cauchy–Schwarz basis max ‖x‖
	axMin   []float64 // bucket-local per-axis minimum
	axMax   []float64 // bucket-local per-axis maximum
}

// shellTable is the per-layer shell organization: the layer centroid
// plus the bucket runs of the (reordered) slab. All buckets share the
// cone half-angle of the dimension's geometry.
type shellTable struct {
	center     []float64
	cnorm      float64 // ‖center‖, for the FP-slack scale
	cosA, sinA float64 // cone half-angle α of every bucket
	buckets    []shellBucket
}

// shellRef is one bucket scheduled for a query, ordered by bound.
type shellRef struct {
	bi    int
	bound float64
}

// buildShellTables reorders every slab by angular bucket and computes
// the per-bucket bound tables of an index entering shell mode.
// Entirely deterministic: bucket assignment depends only on the layer
// data, and the within-bucket order preserves the slab order (stable
// counting sort), so fingerprint-style oracles see the same slab
// permutation at every worker count and on every rebuild.
func (ix *Index) buildShellTables() {
	g := shellgeom.For(ix.dim)
	// The slab slice may be shared with clones (Clone/CloneDelta carry
	// it by reference), so the reorder works on a private copy of the
	// slab headers: the sharing index keeps its original row order and
	// never observes a torn data/ids/pos triple.
	slabs := make([]layerSlab, len(ix.slabs))
	copy(slabs, ix.slabs)
	tabs := make([]shellTable, len(slabs))
	for k := range slabs {
		tabs[k] = buildShellTable(&slabs[k], &g, ix.dim)
	}
	ix.slabs = slabs
	ix.shellTabs = tabs
}

// buildShellTable reorders one slab (fresh arrays; the old ones may be
// shared with clones or the FromLayers pts arena and are never written)
// and returns its shell table.
func buildShellTable(sl *layerSlab, g *shellgeom.Geometry, dim int) shellTable {
	n := len(sl.ids)
	t := shellTable{center: make([]float64, dim), cosA: g.CosAlpha, sinA: g.SinAlpha}
	if n == 0 {
		return t
	}
	for i := 0; i < n; i++ {
		row := sl.data[i*dim : (i+1)*dim]
		for j, v := range row {
			t.center[j] += v
		}
	}
	var csq float64
	for j := range t.center {
		t.center[j] /= float64(n)
		csq += t.center[j] * t.center[j]
	}
	t.cnorm = math.Sqrt(csq)

	// Assign rows to buckets, then stable-counting-sort them into fresh
	// bucket-ordered slab arrays.
	nb := g.NumBuckets()
	assign := make([]int, n)
	counts := make([]int, nb)
	diff := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := sl.data[i*dim : (i+1)*dim]
		for j := range diff {
			diff[j] = row[j] - t.center[j]
		}
		b := g.Assign(diff)
		assign[i] = b
		counts[b]++
	}
	buckets := make([]shellBucket, nb)
	offsets := make([]int, nb)
	at := 0
	for b := range offsets {
		offsets[b] = at
		buckets[b].lo = at
		buckets[b].hi = at + counts[b]
		buckets[b].axis = g.Axes[b]
		at += counts[b]
	}
	data := make([]float64, len(sl.data))
	ids := make([]uint64, n)
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		b := assign[i]
		to := offsets[b]
		offsets[b]++
		copy(data[to*dim:(to+1)*dim], sl.data[i*dim:(i+1)*dim])
		ids[to] = sl.ids[i]
		pos[to] = sl.pos[i]
	}

	// Per-bucket bound metadata over the reordered rows: polar radius,
	// local norm maximum, and the local axis box.
	for b := range buckets {
		bk := &buckets[b]
		if bk.lo == bk.hi {
			continue
		}
		bk.axMin = make([]float64, dim)
		bk.axMax = make([]float64, dim)
		for j := 0; j < dim; j++ {
			bk.axMin[j] = math.Inf(1)
			bk.axMax[j] = math.Inf(-1)
		}
		maxSq := 0.0
		for i := bk.lo; i < bk.hi; i++ {
			row := data[i*dim : (i+1)*dim]
			var rsq, nsq float64
			for j, v := range row {
				d := v - t.center[j]
				rsq += d * d
				nsq += v * v
				if v < bk.axMin[j] {
					bk.axMin[j] = v
				}
				if v > bk.axMax[j] {
					bk.axMax[j] = v
				}
			}
			if r := math.Sqrt(rsq); r > bk.rmax {
				bk.rmax = r
			}
			if nsq > maxSq {
				maxSq = nsq
			}
		}
		bk.maxNorm = math.Sqrt(maxSq)
	}

	// Drop empty buckets so queries never schedule them.
	out := buckets[:0]
	for _, bk := range buckets {
		if bk.hi > bk.lo {
			out = append(out, bk)
		}
	}
	t.buckets = out

	// The layer-level bound metadata (maxNorm, axMin/axMax) is invariant
	// under row permutation; only the row arrays are replaced.
	sl.data, sl.ids, sl.pos = data, ids, pos
	return t
}

// shellTab returns layer k's shell table when shell evaluation is sound
// for the index's current state, else nil. Tombstones (delta buffer
// deletes) disable the shell walk: the Corollary 1 finalization bound
// needs the maximum over every record of the layer including dead ones,
// which a partial evaluation cannot provide. Compaction folds the
// tombstones away and restores the fast path.
func (ix *Index) shellTab(k int) *shellTable {
	if ix.shellTabs == nil || ix.noPrune || ix.deadPosSet() != nil {
		return nil
	}
	return &ix.shellTabs[k]
}

// shellBucketBound returns a sound upper bound on w·x over every record
// of the bucket: the minimum of the polar cone bound, the bucket-local
// Cauchy–Schwarz bound, and the bucket-local axis-box bound, inflated
// by rounding slack so that bound < s implies score < s for every
// member's computed score. wc is the precomputed w·center.
func shellBucketBound(w []float64, wnorm, wc float64, t *shellTable, b *shellBucket) float64 {
	// Angular factor cos(max(0, θ−α)) where cos θ = (w·g)/‖w‖. Computed
	// as cos(θ−α) = cosθ·cosα + sinθ·sinα — no acos, whose derivative
	// blows up at the poles and would make the slack analysis fragile.
	// On the clamped branch the factor is monotone increasing in cos θ,
	// so lifting the computed cosine by shellAngSlack (clamping into
	// [−1, 1]) can only raise the bound; the multiplicative + additive
	// inflation below covers the remaining composition rounding.
	ang := 1.0
	if wnorm > 0 {
		u := 0.0
		for j, wj := range w {
			u += wj * b.axis[j]
		}
		u = u/wnorm + shellAngSlack
		if u < t.cosA { // θ > α even after the lift: the discount applies
			if u < -1 {
				u = -1
			}
			ang = u*t.cosA + math.Sqrt(1-u*u)*t.sinA
			ang = ang*(1+shellAngSlack) + shellAngSlack
			if ang > 1 {
				ang = 1
			}
			if ang < 0 {
				// cos(θ−α) < 0: the whole cone points away from w, and
				// the radius scaling flips — rmax only upper-bounds a
				// member's radius, and a negative factor times a LARGER
				// radius is smaller, so wnorm·rmax·ang would undercut
				// members at radius r < rmax (FuzzShellBucketBound finds
				// such cases). The supremum of wnorm·r·cos(θ−α) over
				// 0 ≤ r ≤ rmax is at r = 0; clamp the factor there,
				// leaving the still-sound polar bound w·c.
				ang = 0
			}
		}
	}
	polar := wc + wnorm*b.rmax*ang

	cs := wnorm * b.maxNorm
	var box float64
	for j, wj := range w {
		if wj >= 0 {
			box += wj * b.axMax[j]
		} else {
			box += wj * b.axMin[j]
		}
	}

	bound := polar
	if cs < bound {
		bound = cs
	}
	if box < bound {
		bound = box
	}
	// One slack term covers all three bounds and the member scores:
	// every quantity involved is a sum of ≤ d+2 products of magnitude
	// ≤ ‖w‖·(‖c‖ + rmax + maxNorm), so the γ-style envelope 4·(d+8)·ε
	// of that scale dominates the worst case — the same argument as
	// boundSlack for the layer-level bound.
	scale := math.Abs(wc) + wnorm*(t.cnorm+b.rmax+b.maxNorm)
	return bound + 4*float64(len(w)+8)*(0x1p-52)*scale
}

// sortShellRefs orders refs by bound descending, ties by bucket index
// ascending — a deterministic schedule. Insertion sort: bucket counts
// are tiny (16 sectors in 2D, 2·d faces otherwise) and the warm solo
// query path must stay allocation-free, which sort.Slice is not.
func sortShellRefs(refs []shellRef) {
	for i := 1; i < len(refs); i++ {
		r := refs[i]
		j := i - 1
		for j >= 0 && (refs[j].bound < r.bound || (refs[j].bound == r.bound && refs[j].bi > r.bi)) {
			refs[j+1] = refs[j]
			j--
		}
		refs[j+1] = r
	}
}

// shellSchedule fills the searcher's reusable schedule scratch with the
// table's buckets in decreasing bound order.
func (s *Searcher) shellSchedule(t *shellTable) []shellRef {
	s.ensureWNorm()
	wc := 0.0
	for j, wj := range s.weights {
		wc += wj * t.center[j]
	}
	ord := s.shellOrd[:0]
	for bi := range t.buckets {
		ord = append(ord, shellRef{bi: bi, bound: shellBucketBound(s.weights, s.wnorm, wc, t, &t.buckets[bi])})
	}
	sortShellRefs(ord)
	s.shellOrd = ord
	return ord
}

// consumeLayerShells evaluates the searcher's current layer through its
// shell table: buckets in decreasing bound order, stopping as soon as
// the layer's top-keep collector is full and the next bound cannot beat
// its threshold. The kept set — and therefore every emitted result,
// candidate, and tie — is identical to the full scan's: a skipped
// record's score is strictly below the collector's final threshold
// (bound < threshold at skip time, and the threshold only rises), so it
// could never have displaced a kept record even via the position
// tie-break; and the layer maximum is never skipped (its bucket's bound
// is ≥ the layer maximum ≥ any threshold), so the Corollary 1
// finalization bound maxT is exact.
func (s *Searcher) consumeLayerShells(sl *layerSlab, t *shellTable) {
	n := len(sl.pos)
	s.beginLayer(n)
	scores := s.ensureScoreBuf(n)
	ord := s.shellSchedule(t)
	evaluated := 0
	pruneBound := 0.0
	for _, ref := range ord {
		if th, full := s.best.Threshold(); full && ref.bound < th {
			// Bounds are descending: no later bucket can matter either.
			pruneBound = ref.bound
			break
		}
		b := &t.buckets[ref.bi]
		s.scoreRows(sl, scores, b.lo, b.hi)
		for i := b.lo; i < b.hi; i++ {
			s.best.Offer(topk.Item{ID: sl.pos[i], Score: scores[i]})
		}
		evaluated += b.hi - b.lo
	}
	if skipped := n - evaluated; skipped > 0 {
		s.stats.RecordsSkippedByShells += skipped
		s.emitTrace(TraceEvent{Kind: TraceShellsPruned, Layer: s.k, Score: pruneBound, Evaluated: skipped})
	}
	s.stats.ShellLayers++
	s.finishLayer(evaluated, 0, false)
}
