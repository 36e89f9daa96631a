package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// Format v1, read only. A v1 file starts with a header — magic,
// dimension uint32, record count uint64, layer count uint32, then one
// (start page, page count, record count) uint32 triple per layer —
// padded to whole pages, followed by each layer's records packed as
// [id uint64][attr float64 × d] rows, RecordsPerPage(d) to a page,
// never spanning pages. This package only reads v1: Load and WAL
// recovery migrate a v1 file through decodeV1 (by way of LoadBytes),
// and the next write stores the index as v2.

// v1HeaderBytes is the fixed part of the v1 header; the layer table
// follows it.
const v1HeaderBytes = 24

// decodeV1 decodes a complete v1 file onto the heap, preserving its
// layer partition (core.FromLayers; no re-peeling). A file of zero
// layers — an index whose records were all deleted — decodes to
// core.Empty, which later insertions grow normally.
//
// The layer table is authoritative and the header's record count is
// not checked against it: the v1 writer put the index's Len() there,
// which for an index saved with unfolded delta mutations counted
// records its layers did not hold. Such a file loads with its layers'
// records, as the v1 reader always loaded it.
func decodeV1(buf []byte, opt core.Options) (*core.Index, error) {
	if len(buf) < v1HeaderBytes || len(buf)%PageSize != 0 {
		return nil, fmt.Errorf("%w: v1 file is %d bytes, not whole pages", ErrCorrupt, len(buf))
	}
	le := binary.LittleEndian
	dim := int(le.Uint32(buf[8:]))
	count := int(le.Uint32(buf[20:]))
	if dim <= 0 || RecordsPerPage(dim) == 0 {
		return nil, fmt.Errorf("%w: dimension %d", ErrCorrupt, dim)
	}
	if v1HeaderBytes+12*count > len(buf) {
		return nil, fmt.Errorf("%w: truncated layer table", ErrCorrupt)
	}
	layers := make([][]core.Record, count)
	for k := range layers {
		off := v1HeaderBytes + 12*k
		start := int64(le.Uint32(buf[off:])) * PageSize
		end := start + int64(le.Uint32(buf[off+4:]))*PageSize
		if end > int64(len(buf)) {
			return nil, fmt.Errorf("%w: layer %d extends past the end of the file", ErrCorrupt, k+1)
		}
		n := int(le.Uint32(buf[off+8:]))
		recs, err := decodeRecords(buf[start:end], n, dim)
		if err != nil {
			return nil, err
		}
		layers[k] = recs
	}
	if count == 0 {
		return core.Empty(dim, opt)
	}
	ix, err := core.FromLayers(layers, opt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ix, nil
}

// decodeRecords unpacks count records of dimension d from page data.
func decodeRecords(buf []byte, count, d int) ([]core.Record, error) {
	perPage := RecordsPerPage(d)
	need := (count + perPage - 1) / perPage * PageSize
	if len(buf) < need {
		return nil, fmt.Errorf("%w: layer data truncated (%d < %d bytes)", ErrCorrupt, len(buf), need)
	}
	recs := make([]core.Record, count)
	vecs := make([]float64, count*d)
	for i := range recs {
		page, slot := i/perPage, i%perPage
		off := page*PageSize + slot*RecordSize(d)
		v := vecs[i*d : (i+1)*d : (i+1)*d]
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8+8*j:]))
		}
		recs[i] = core.Record{ID: binary.LittleEndian.Uint64(buf[off:]), Vector: v}
	}
	return recs, nil
}
