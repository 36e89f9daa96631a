package onion

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// DiskIndex is a read-only Onion index served straight from its file,
// the way the paper's query processor operates: the file is memory
// mapped, and each layer a query enters is one seek plus that layer's
// consecutive pages. Answers, statistics and progressive order are
// exactly those of the in-memory index the file was saved from; the
// I/O each query performs is tracked alongside.
//
// Queries run on the caller's goroutine. If the file is truncated or
// replaced while it is open, the query that reads a vanished page
// returns an error instead of crashing the process, and so does every
// later query and every query after Close.
type DiskIndex struct {
	mp   *storage.MappedV2
	ix   *core.Index
	base IOStats // the I/O counters at open or at the last ResetIO
}

// IOStats counts physical accesses: seeks (random) and pages read
// (sequential). Cost applies the paper's Eq. 2 weighting, where one
// seek costs as much as `randomWeight` page reads (the paper uses 8).
type IOStats = storage.IOStats

// OpenDisk opens an index file written by Index.Save. Opening costs a
// pass over the record IDs; the vectors are paged in as queries reach
// their layers. A file saved by a version before the current format
// fails with an error wrapping storage.ErrBadVersion: Load it and Save
// it once to rewrite it.
func OpenDisk(path string) (*DiskIndex, error) {
	mp, err := storage.OpenMappedV2(path, 0)
	if errors.Is(err, storage.ErrBadVersion) {
		return nil, fmt.Errorf("onion: open %s: %w (Load and Save it once to rewrite it in the current format)", path, err)
	}
	if err != nil {
		return nil, err
	}
	var ix *core.Index
	if gerr := mp.Guard(func() { ix, err = mp.Index(core.Options{Parallelism: 1}) }); gerr != nil {
		err = gerr
	}
	if err != nil {
		mp.Close()
		return nil, err
	}
	return &DiskIndex{mp: mp, ix: ix}, nil
}

// Close releases the mapping. It may run concurrently with queries:
// it waits for the TopN and DiskStream.Next calls in flight to return,
// and every query after it returns an error.
func (d *DiskIndex) Close() error { return d.mp.Close() }

// TopN answers a top-n query from disk, returning results, evaluation
// statistics, and the physical I/O performed by this query.
func (d *DiskIndex) TopN(weights []float64, n int) ([]Result, QueryStats, IOStats, error) {
	before := d.mp.IO()
	var res []Result
	var st QueryStats
	var err error
	if gerr := d.mp.Guard(func() { res, st, err = d.ix.TopN(weights, n) }); gerr != nil {
		return nil, QueryStats{}, IOStats{}, gerr
	}
	return res, st, ioSince(d.mp.IO(), before), err
}

// Search starts a progressive query over the on-disk layout. Layers are
// read lazily: consuming only the first few results touches only the
// outermost pages.
func (d *DiskIndex) Search(weights []float64, limit int) (*DiskStream, error) {
	s, err := d.ix.NewSearcherChecked(weights, limit)
	if err != nil {
		return nil, err
	}
	return &DiskStream{s: s, mp: d.mp}, nil
}

// Dim returns the number of attributes.
func (d *DiskIndex) Dim() int { return d.ix.Dim() }

// Len returns the number of records.
func (d *DiskIndex) Len() int { return d.ix.Len() }

// NumLayers returns the number of layers.
func (d *DiskIndex) NumLayers() int { return d.ix.NumLayers() }

// IO returns the cumulative I/O counters since open (or the last
// ResetIO).
func (d *DiskIndex) IO() IOStats { return ioSince(d.mp.IO(), d.base) }

// ResetIO zeroes the I/O counters. Not safe to call concurrently with
// queries.
func (d *DiskIndex) ResetIO() { d.base = d.mp.IO() }

func ioSince(now, then IOStats) IOStats {
	return IOStats{
		RandomAccesses:  now.RandomAccesses - then.RandomAccesses,
		SequentialReads: now.SequentialReads - then.SequentialReads,
	}
}

// DiskStream is the progressive iterator over an on-disk index.
type DiskStream struct {
	s   *core.Searcher
	mp  *storage.MappedV2
	err error // a read failure that stopped the stream
}

// Next returns the next result in rank order; ok is false once the
// limit is reached, the index is exhausted, or a read failed (see Err).
func (st *DiskStream) Next() (r Result, ok bool) {
	if st.err != nil {
		return Result{}, false
	}
	if st.err = st.mp.Guard(func() { r, ok = st.s.Next() }); st.err != nil {
		return Result{}, false
	}
	return r, ok
}

// Stats returns evaluation statistics so far.
func (st *DiskStream) Stats() QueryStats { return st.s.Stats() }

// Err reports a read failure, if one stopped the stream.
func (st *DiskStream) Err() error { return st.err }
