package core

import (
	"fmt"

	"repro/internal/topk"
)

// LayerSource abstracts "an Onion index whose layers can be fetched",
// decoupling the query algorithm from where the layers live. The
// in-memory Index implements it, and package storage's DiskIndex
// implements it by reading paged flat files, so the exact same
// evaluation procedure (and therefore the exact same evaluated-records /
// accessed-layers statistics) runs over both.
type LayerSource interface {
	// Dim returns the attribute dimensionality.
	Dim() int
	// NumLayers returns the number of layers, outermost first.
	NumLayers() int
	// ReadLayer returns the records of 0-based layer k.
	ReadLayer(k int) ([]Record, error)
}

// ReadLayer lets *Index satisfy LayerSource.
func (ix *Index) ReadLayer(k int) ([]Record, error) {
	if k < 0 || k >= len(ix.layers) {
		return nil, fmt.Errorf("core: layer %d of %d", k, len(ix.layers))
	}
	return ix.Layer(k), nil
}

// SourceSearcher streams results of a linear optimization query over any
// LayerSource, in exact rank order, using the paper's Section 3.2
// procedure (see Searcher for the in-memory fast path).
type SourceSearcher struct {
	src     LayerSource
	weights []float64
	remain  int
	k       int
	cand    topk.MaxHeap
	held    map[int]Result // item payloads keyed by candidate handle
	nextKey int
	emit    []Result
	emitPos int
	stats   Stats
	err     error
}

// NewSourceSearcher prepares a progressive query over src, rejecting
// weights exactly as NewSearcherChecked does. limit <= 0 streams the
// complete ranking.
func NewSourceSearcher(src LayerSource, weights []float64, limit int) (*SourceSearcher, error) {
	if err := ValidateWeights(weights, src.Dim()); err != nil {
		return nil, err
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	if limit <= 0 {
		limit = -1
	}
	return &SourceSearcher{src: src, weights: w, remain: limit, held: make(map[int]Result)}, nil
}

// Stats returns the work performed so far.
func (s *SourceSearcher) Stats() Stats { return s.stats }

// Err returns the first layer-read error, if any. Next returns ok=false
// after an error.
func (s *SourceSearcher) Err() error { return s.err }

// Next returns the next result in rank order.
func (s *SourceSearcher) Next() (Result, bool) {
	if s.remain == 0 || s.err != nil {
		return Result{}, false
	}
	for s.emitPos >= len(s.emit) {
		if !s.advance() {
			return Result{}, false
		}
	}
	r := s.emit[s.emitPos]
	s.emitPos++
	if s.remain > 0 {
		s.remain--
	}
	return r, true
}

func (s *SourceSearcher) advance() bool {
	s.emit = s.emit[:0]
	s.emitPos = 0

	if s.k >= s.src.NumLayers() {
		for {
			it, ok := s.cand.Pop()
			if !ok {
				break
			}
			s.emit = append(s.emit, s.take(it.ID))
		}
		return len(s.emit) > 0
	}

	recs, err := s.src.ReadLayer(s.k)
	if err != nil {
		s.err = err
		return false
	}
	s.stats.LayersAccessed++
	s.stats.RecordsEvaluated += len(recs)
	if len(recs) == 0 {
		// Defensive: a well-formed index has no empty layers, but a
		// source is free to produce one; skip it.
		s.k++
		return true
	}
	keep := len(recs)
	if s.remain > 0 && s.remain < keep {
		keep = s.remain
	}
	best := topk.NewBounded(keep)
	layerRes := make([]Result, len(recs))
	for i, r := range recs {
		var score float64
		for j, wj := range s.weights {
			score += wj * r.Vector[j]
		}
		layerRes[i] = Result{ID: r.ID, Score: score, Layer: s.k}
		best.Offer(topk.Item{ID: i, Score: score})
	}
	t := best.Descending()
	maxT := t[0].Score

	for {
		c, ok := s.cand.Peek()
		if !ok || c.Score <= maxT {
			break
		}
		s.cand.Pop()
		s.emit = append(s.emit, s.take(c.ID))
	}
	s.emit = append(s.emit, layerRes[t[0].ID])
	for _, it := range t[1:] {
		s.hold(layerRes[it.ID])
	}
	s.k++
	return true
}

// hold parks a candidate result; take retrieves and releases it. The
// MaxHeap stores int handles because results carry uint64 IDs that do
// not fit its int ID field safely across platforms.
func (s *SourceSearcher) hold(r Result) {
	key := s.nextKey
	s.nextKey++
	s.held[key] = r
	s.cand.Push(topk.Item{ID: key, Score: r.Score})
}

func (s *SourceSearcher) take(key int) Result {
	r := s.held[key]
	delete(s.held, key)
	return r
}

// SourceTopN collects the top n results over src. It mirrors
// Index.TopN but works over any LayerSource: n <= 0 returns no results
// and reads no layer.
func SourceTopN(src LayerSource, weights []float64, n int) ([]Result, Stats, error) {
	s, err := NewSourceSearcher(src, weights, n)
	if err != nil || n <= 0 {
		return nil, Stats{}, err
	}
	out := []Result{}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, s.Stats(), s.Err()
}
