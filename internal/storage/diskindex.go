package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/vfs"
)

// Write serializes a built Onion index into the paged flat-file format,
// one layer after another, each starting on a fresh page. The write is
// atomic and crash-durable: see WriteFS.
func Write(path string, ix *core.Index) error {
	return WriteFS(vfs.OS{}, path, ix)
}

// WriteFS is Write against an explicit filesystem (the seam the crash
// tests inject a power-loss simulator through). It follows the full
// atomic-replace discipline:
//
//	write temp → fsync temp → rename over path → fsync directory
//
// Rename alone makes the replacement atomic against concurrent readers
// but not against power loss: without the temp-file fsync the new name
// can point at zero-filled pages after a crash, and without the
// directory fsync the rename itself may not survive. Either omission
// loses a "saved" index; TestWriteSurvivesCrash pins both.
func WriteFS(fsys vfs.FS, path string, ix *core.Index) error {
	data, err := Marshal(ix)
	if err != nil {
		return err
	}
	return writeFileAtomic(fsys, path, data)
}

// writeFileAtomic is the shared atomic-replace tail of WriteFS and
// WriteV2FS: temp → fsync → rename → fsync directory.
func writeFileAtomic(fsys vfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Marshal serializes the index to page-aligned bytes (the in-memory
// equivalent of Write, also used with NewMemPager in tests/benchmarks).
// The format stores layers only, so a pending delta buffer is folded
// into a private copy first; the receiver is untouched.
func Marshal(ix *core.Index) ([]byte, error) {
	d := ix.Dim()
	if RecordsPerPage(d) == 0 {
		return nil, fmt.Errorf("storage: %d-dimensional records exceed the page size", d)
	}
	if ix.HasDelta() {
		folded, err := ix.CompactedClone()
		if err != nil {
			return nil, fmt.Errorf("storage: fold pending delta: %w", err)
		}
		ix = folded
	}
	h := &Header{Dim: uint32(d), Records: uint64(ix.Len())}
	layerData := make([][]byte, ix.NumLayers())
	page := uint32(HeaderPages(ix.NumLayers()))
	for k := 0; k < ix.NumLayers(); k++ {
		recs := ix.Layer(k)
		buf := encodeRecords(recs, d)
		layerData[k] = buf
		h.Layers = append(h.Layers, Extent{
			StartPage: page,
			Pages:     uint32(len(buf) / PageSize),
			Records:   uint32(len(recs)),
		})
		page += uint32(len(buf) / PageSize)
	}
	out := marshalHeader(h)
	for _, buf := range layerData {
		out = append(out, buf...)
	}
	return out, nil
}

// DiskIndex is a read-only Onion index served from a Pager. It
// implements core.LayerSource, so core.SourceTopN / NewSourceSearcher
// run the paper's query algorithm directly against the paged layout
// while the pager counts seeks and page reads.
type DiskIndex struct {
	pager  Pager
	header *Header
}

// Open maps an index file for querying. The returned closer must be
// closed by the caller.
func Open(path string) (*DiskIndex, io.Closer, error) {
	pager, closer, err := OpenFilePager(path)
	if err != nil {
		return nil, nil, err
	}
	di, err := NewDiskIndex(pager)
	if err != nil {
		closer.Close()
		return nil, nil, err
	}
	return di, closer, nil
}

// NewDiskIndex reads the header through the pager and returns a
// queryable index.
func NewDiskIndex(pager Pager) (*DiskIndex, error) {
	// The header page count is unknown before parsing; read one page,
	// parse the layer count, then re-read if the table spills over.
	buf, err := pager.ReadRun(0, 1)
	if err != nil {
		return nil, err
	}
	h, err := unmarshalHeader(buf)
	if err != nil {
		// A one-page read can truncate a large layer table; detect via
		// the declared count and retry with the full header.
		if len(buf) >= 24 {
			// Re-read optimistically with the required page count.
			n := int(uint32(buf[20]) | uint32(buf[21])<<8 | uint32(buf[22])<<16 | uint32(buf[23])<<24)
			if n > 0 && n < 1<<24 {
				hp := HeaderPages(n)
				if hp > 1 && hp <= pager.NumPages() {
					buf2, err2 := pager.ReadRun(0, hp)
					if err2 != nil {
						return nil, err2
					}
					if h2, err3 := unmarshalHeader(buf2); err3 == nil {
						return &DiskIndex{pager: pager, header: h2}, nil
					}
				}
			}
		}
		return nil, err
	}
	return &DiskIndex{pager: pager, header: h}, nil
}

// Dim implements core.LayerSource.
func (di *DiskIndex) Dim() int { return int(di.header.Dim) }

// NumLayers implements core.LayerSource.
func (di *DiskIndex) NumLayers() int { return len(di.header.Layers) }

// Len returns the total number of records.
func (di *DiskIndex) Len() int { return int(di.header.Records) }

// LayerRecords returns the record count of 0-based layer k.
func (di *DiskIndex) LayerRecords(k int) int { return int(di.header.Layers[k].Records) }

// ReadLayer implements core.LayerSource: one random access plus the
// layer's sequential pages.
func (di *DiskIndex) ReadLayer(k int) ([]core.Record, error) {
	if k < 0 || k >= len(di.header.Layers) {
		return nil, fmt.Errorf("storage: layer %d of %d", k, len(di.header.Layers))
	}
	e := di.header.Layers[k]
	buf, err := di.pager.ReadRun(int(e.StartPage), int(e.Pages))
	if err != nil {
		return nil, err
	}
	return decodeRecords(buf, int(e.Records), di.Dim())
}

// Stats exposes the pager's counters.
func (di *DiskIndex) Stats() IOStats { return di.pager.Stats() }

// ResetStats zeroes the pager's counters (e.g. between queries).
func (di *DiskIndex) ResetStats() { di.pager.ResetStats() }

// TopN runs a top-n query against the on-disk layout and reports both
// evaluation stats and the I/O performed (measured, not estimated).
func (di *DiskIndex) TopN(weights []float64, n int) ([]core.Result, core.Stats, IOStats, error) {
	before := di.pager.Stats()
	res, stats, err := core.SourceTopN(di, weights, n)
	after := di.pager.Stats()
	return res, stats, IOStats{
		RandomAccesses:  after.RandomAccesses - before.RandomAccesses,
		SequentialReads: after.SequentialReads - before.SequentialReads,
	}, err
}

// Load reads an index file fully back into a mutable in-memory
// core.Index, preserving the stored layer partition (no re-peeling).
func Load(path string) (*core.Index, error) {
	di, closer, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	layers := make([][]core.Record, di.NumLayers())
	for k := range layers {
		if layers[k], err = di.ReadLayer(k); err != nil {
			return nil, err
		}
	}
	return core.FromLayers(layers, core.Options{})
}

// ScanCost returns the paper's baseline: a full sequential scan of the
// same records reads ceil(n/recordsPerPage) pages with no seek charged
// (the paper's assumption that favors the scan; 8,000 pages for the 3D
// million-record set, 10,000 for 4D).
func ScanCost(records, dim int) float64 {
	perPage := RecordsPerPage(dim)
	return float64((records + perPage - 1) / perPage)
}

// EstimateCost is Eq. 2 of the paper: the analytic I/O cost of a query
// that accessed the given number of layers and evaluated the given
// number of records, without materializing a file.
func EstimateCost(layersAccessed, recordsEvaluated, dim int) float64 {
	recBytes := RecordSize(dim)
	pages := float64(recordsEvaluated*recBytes) / PageSize
	return DefaultRandomWeight*float64(layersAccessed) + pages
}
