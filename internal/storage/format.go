// Package storage persists an Onion index the way the paper lays it out
// (Section 3.1): each layer in consecutive pages of a flat file,
// outermost layer first, so reading layer k costs one random access
// (the seek to its first page) plus a run of sequential page reads —
// the access pattern Section 5's I/O evaluation assumes and Eq. 2
// prices.
//
// Every file this package writes is checkpoint format v2 (formatv2.go):
// a CRC'd directory, then one page-aligned extent per layer holding its
// vectors (8·d bytes per record), then the record IDs and an opaque aux
// blob. The same bytes are decoded onto the heap (Load, LoadV2Bytes) or
// served in place from a memory mapping (MappedV2). Format v1, which
// packed [id][vector] rows into pages, is only read: decodeV1 (v1.go)
// migrates it to a heap index, and the next write stores it as v2.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the disk page size assumed throughout the paper (4 KB).
const PageSize = 4096

// RecordSize returns the paper's size of one record of dimension d:
// [id uint64][attr float64 × d], 8*(d+1) bytes — 32 bytes for a
// 3-attribute record and 40 bytes for a 4-attribute one. Eq. 2 and the
// scan baseline are priced in these records; format v1 stored them.
func RecordSize(d int) int { return 8 * (d + 1) }

// RecordsPerPage returns how many records of dimension d fit in a page
// when records never span pages.
func RecordsPerPage(d int) int { return PageSize / RecordSize(d) }

// Magic identifies a format v1 file; MagicV2 shares its first seven
// bytes, and the eighth is the version.
var Magic = [8]byte{'O', 'N', 'I', 'O', 'N', 'I', 'X', 1}

// MagicV2 identifies a v2 file: same prefix as v1, version byte 2.
var MagicV2 = [8]byte{'O', 'N', 'I', 'O', 'N', 'I', 'X', 2}

var (
	// ErrBadMagic marks a file that is not an Onion index.
	ErrBadMagic = errors.New("storage: bad magic (not an onion index file)")
	// ErrCorrupt marks structurally invalid headers or pages.
	ErrCorrupt = errors.New("storage: corrupt index file")
	// ErrBadVersion marks an Onion index file of a different format
	// version than the caller asked for (e.g. a v1 file opened through
	// the v2 mmap path). Distinguished from ErrBadMagic so
	// version-sniffing loaders can fall back instead of declaring
	// corruption.
	ErrBadVersion = errors.New("storage: unexpected index format version")
)

// FormatVersion sniffs the format version of an index file's first
// bytes: 1 or 2, or ErrBadMagic when the prefix is not an Onion index.
func FormatVersion(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, ErrBadMagic
	}
	for i := 0; i < 7; i++ {
		if buf[i] != Magic[i] {
			return 0, ErrBadMagic
		}
	}
	v := int(buf[7])
	if v != 1 && v != 2 {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return v, nil
}

// IOStats counts physical access operations the way the paper's cost
// model does: a random access is a seek to a non-consecutive page; every
// page transferred counts as one sequential access.
type IOStats struct {
	RandomAccesses  int // disk seeks (one per layer entered)
	SequentialReads int // pages transferred
}

// Cost applies the paper's Eq. 2 weighting: one random access costs
// `randomWeight` sequential page reads (the paper conservatively uses 8).
func (s IOStats) Cost(randomWeight float64) float64 {
	return randomWeight*float64(s.RandomAccesses) + float64(s.SequentialReads)
}

// DefaultRandomWeight is the paper's random:sequential cost ratio.
const DefaultRandomWeight = 8

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
