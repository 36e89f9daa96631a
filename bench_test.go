package onion

// One testing.B benchmark per table and figure of the paper's
// evaluation, at benchmark-friendly scale (50,000 points instead of
// 1,000,000 — cmd/onionbench reproduces the full-scale numbers; see
// EXPERIMENTS.md). Custom metrics report the paper's quantities:
// records/query, layers/query, iocost/query, speedup.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fagin"
	"repro/internal/scan"
	"repro/internal/storage"
	"repro/internal/workload"
)

const benchN = 50_000

type benchSet struct {
	name string
	dist workload.Distribution
	dim  int

	once sync.Once
	pts  [][]float64
	ix   *core.Index
}

var benchSets = []*benchSet{
	{name: "3DGaussian", dist: workload.Gaussian, dim: 3},
	{name: "4DGaussian", dist: workload.Gaussian, dim: 4},
	{name: "3DUniform", dist: workload.Uniform, dim: 3},
	{name: "4DUniform", dist: workload.Uniform, dim: 4},
}

func (s *benchSet) get(b *testing.B) *benchSet {
	b.Helper()
	s.once.Do(func() {
		s.pts = workload.Points(s.dist, benchN, s.dim, 1234)
		recs := make([]core.Record, benchN)
		for i, p := range s.pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s.ix = ix
	})
	return s
}

// BenchmarkBuild measures index construction (the paper's acknowledged
// cost center, Section 3.1) on 10,000 points per distribution/dimension.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range benchSets {
		b.Run(spec.name, func(b *testing.B) {
			pts := workload.Points(spec.dist, 10_000, spec.dim, 99)
			recs := make([]core.Record, len(pts))
			for i, p := range pts {
				recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(recs, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8LayerSpread reports the layer statistics behind Figure 8:
// total layers and the largest layer's share of the data.
func BenchmarkFig8LayerSpread(b *testing.B) {
	for _, spec := range benchSets {
		b.Run(spec.name, func(b *testing.B) {
			s := spec.get(b)
			var layers int
			for i := 0; i < b.N; i++ {
				layers = s.ix.NumLayers()
			}
			maxSz := 0
			for _, sz := range s.ix.LayerSizes() {
				if sz > maxSz {
					maxSz = sz
				}
			}
			b.ReportMetric(float64(layers), "layers")
			b.ReportMetric(100*float64(maxSz)/float64(benchN), "maxlayer_%")
		})
	}
}

// BenchmarkTable1Query measures the per-query work of Table 1 / Figure
// 9: average records evaluated and layers accessed for N in
// {1,10,100,1000} over random weight vectors.
func BenchmarkTable1Query(b *testing.B) {
	for _, spec := range benchSets {
		for _, topn := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/N=%d", spec.name, topn), func(b *testing.B) {
				s := spec.get(b)
				ws := workload.QueryWeights(256, s.dim, 55)
				var recSum, laySum float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := s.ix.TopN(ws[i%len(ws)], topn)
					if err != nil {
						b.Fatal(err)
					}
					recSum += float64(st.RecordsEvaluated)
					laySum += float64(st.LayersAccessed)
				}
				b.ReportMetric(recSum/float64(b.N), "records/query")
				b.ReportMetric(laySum/float64(b.N), "layers/query")
			})
		}
	}
}

// BenchmarkTable2Speedup runs the Onion and the sequential-scan baseline
// back to back and reports the computational speedup of Table 2.
func BenchmarkTable2Speedup(b *testing.B) {
	for _, spec := range benchSets {
		for _, topn := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/N=%d", spec.name, topn), func(b *testing.B) {
				s := spec.get(b)
				ws := workload.QueryWeights(64, s.dim, 56)
				var evaluated float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := s.ix.TopN(ws[i%len(ws)], topn)
					if err != nil {
						b.Fatal(err)
					}
					evaluated += float64(st.RecordsEvaluated)
				}
				b.ReportMetric(float64(benchN)*float64(b.N)/evaluated, "speedup_x")
			})
		}
	}
}

// BenchmarkScanBaseline is the comparator row of Table 2: a scan always
// evaluates all records.
func BenchmarkScanBaseline(b *testing.B) {
	for _, spec := range benchSets {
		b.Run(spec.name, func(b *testing.B) {
			s := spec.get(b)
			ws := workload.QueryWeights(64, s.dim, 57)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scan.TopN(s.pts, nil, ws[i%len(ws)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchN), "records/query")
		})
	}
}

// BenchmarkFig10DiskIO replays queries against a saved index through
// OpenDisk, which counts one seek plus the extent pages of every layer
// a query enters, and reports the measured Eq. 2 cost of Figure 10 /
// Table 3.
func BenchmarkFig10DiskIO(b *testing.B) {
	dir := b.TempDir()
	for _, spec := range benchSets {
		path := filepath.Join(dir, spec.name+".onion")
		for _, topn := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/N=%d", spec.name, topn), func(b *testing.B) {
				s := spec.get(b)
				if _, err := os.Stat(path); err != nil {
					if err := (&Index{ix: s.ix}).Save(path); err != nil {
						b.Fatal(err)
					}
				}
				di, err := OpenDisk(path)
				if err != nil {
					b.Fatal(err)
				}
				defer di.Close()
				ws := workload.QueryWeights(64, s.dim, 58)
				var cost float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, io, err := di.TopN(ws[i%len(ws)], topn)
					if err != nil {
						b.Fatal(err)
					}
					cost += io.Cost(storage.DefaultRandomWeight)
				}
				scanCost := storage.ScanCost(benchN, s.dim)
				b.ReportMetric(cost/float64(b.N), "iocost/query")
				b.ReportMetric(scanCost*float64(b.N)/cost, "iospeedup_x")
			})
		}
	}
}

// BenchmarkFaginVsOnion is the Figure 2 comparison: records touched by
// Fagin's algorithm vs the Onion on a 2D disk with correlated access.
func BenchmarkFaginVsOnion(b *testing.B) {
	pts := workload.Points(workload.Ball, benchN, 2, 31)
	recs := make([]core.Record, len(pts))
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fagin.NewIndex(pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	ws := workload.QueryWeights(64, 2, 32)
	b.Run("Onion", func(b *testing.B) {
		var seen float64
		for i := 0; i < b.N; i++ {
			_, st, err := ix.TopN(ws[i%len(ws)], 10)
			if err != nil {
				b.Fatal(err)
			}
			seen += float64(st.RecordsEvaluated)
		}
		b.ReportMetric(seen/float64(b.N), "records/query")
	})
	b.Run("Fagin", func(b *testing.B) {
		var seen float64
		for i := 0; i < b.N; i++ {
			_, st, err := fx.TopN(ws[i%len(ws)], 10)
			if err != nil {
				b.Fatal(err)
			}
			seen += float64(st.ObjectsSeen)
		}
		b.ReportMetric(seen/float64(b.N), "records/query")
	})
}

// BenchmarkShellAblation is the Section 6 / Figure 11 ablation: the
// layer-pruned walk over a plain clone vs the same walk over a clone
// with spherical-shell tables.
func BenchmarkShellAblation(b *testing.B) {
	spec := benchSets[2] // 3D uniform: the paper's "halves the records" case
	s := spec.get(b)
	shelled := s.ix.Clone()
	shelled.SetShellPruning(true)
	ws := workload.QueryWeights(64, s.dim, 33)
	for _, mode := range []struct {
		name string
		ix   *core.Index
	}{
		{"LayersOnly", s.ix.Clone()},
		{"Shells", shelled},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ix := mode.ix
			var seen, skipped float64
			for i := 0; i < b.N; i++ {
				_, st, err := ix.TopN(ws[i%len(ws)], 10)
				if err != nil {
					b.Fatal(err)
				}
				seen += float64(st.RecordsEvaluated)
				skipped += float64(st.RecordsSkippedByShells)
			}
			b.ReportMetric(seen/float64(b.N), "records/query")
			b.ReportMetric(skipped/float64(b.N), "skipped/query")
		})
	}
}

// BenchmarkHierarchyModes compares the paper's parent-pruned global
// query against the exhaustive all-children merge (Section 4).
func BenchmarkHierarchyModes(b *testing.B) {
	groups := make(map[string][]Record)
	id := uint64(1)
	for c := 0; c < 6; c++ {
		pts := workload.Points(workload.Gaussian, 8_000, 3, int64(60+c))
		for _, p := range pts {
			v := []float64{p[0] + float64(c*4), p[1], p[2]}
			groups[fmt.Sprintf("c%d", c)] = append(groups[fmt.Sprintf("c%d", c)], Record{ID: id, Vector: v})
			id++
		}
	}
	h, err := BuildHierarchy(groups, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ws := workload.QueryWeights(64, 3, 61)
	b.Run("ParentPruned", func(b *testing.B) {
		var rec, ch float64
		for i := 0; i < b.N; i++ {
			_, st, err := h.TopN(ws[i%len(ws)], 10)
			if err != nil {
				b.Fatal(err)
			}
			rec += float64(st.Total().RecordsEvaluated)
			ch += float64(st.ChildrenQueried)
		}
		b.ReportMetric(rec/float64(b.N), "records/query")
		b.ReportMetric(ch/float64(b.N), "children/query")
	})
	b.Run("Exhaustive", func(b *testing.B) {
		var rec, ch float64
		for i := 0; i < b.N; i++ {
			_, st, err := h.TopNExhaustive(ws[i%len(ws)], 10)
			if err != nil {
				b.Fatal(err)
			}
			rec += float64(st.Total().RecordsEvaluated)
			ch += float64(st.ChildrenQueried)
		}
		b.ReportMetric(rec/float64(b.N), "records/query")
		b.ReportMetric(ch/float64(b.N), "children/query")
	})
}

// BenchmarkProgressiveFirstResult measures the latency advantage of
// progressive retrieval (Section 3.3): time to the first result vs a
// complete top-1000.
func BenchmarkProgressiveFirstResult(b *testing.B) {
	s := benchSets[0].get(b)
	ws := workload.QueryWeights(64, s.dim, 34)
	b.Run("First", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := s.ix.NewSearcher(ws[i%len(ws)], 1000)
			if _, ok := st.Next(); !ok {
				b.Fatal("no result")
			}
		}
	})
	b.Run("Full1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.ix.TopN(ws[i%len(ws)], 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaintenance measures the paper's Section 3.4 operations,
// which it warns are far more expensive than queries.
func BenchmarkMaintenance(b *testing.B) {
	pts := workload.Points(workload.Gaussian, 5_000, 3, 35)
	recs := make([]core.Record, len(pts))
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	extra := workload.Points(workload.Gaussian, 100_000, 3, 36)
	b.Run("Insert", func(b *testing.B) {
		ix, err := core.Build(recs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ix.Insert(core.Record{ID: uint64(10_000 + i), Vector: extra[i%len(extra)]}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Delete", func(b *testing.B) {
		ix, err := core.Build(recs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2*b.N; i++ { // pre-insert so deletes cannot exhaust the index
			if err := ix.Insert(core.Record{ID: uint64(50_000 + i), Vector: extra[i%len(extra)]}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ix.Delete(uint64(50_000 + i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
