package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
)

// Format v2 — the columnar, mmap-servable layout, and the only one
// this package writes. It persists exactly the derived columnar state
// queries execute over, page-aligned so a serving process can map the
// file and adopt the extents in place (core.FromColumnar):
//
//	page 0..dirPages-1   directory: header + per-layer metadata
//	                     (counts, extent locations, pruning bounds,
//	                     shell tables), CRC-protected
//	per layer k          data extent: count_k×dim float64, row-major,
//	                     slab row order (bucket-ordered in shell mode)
//	                     pos extent:  count_k int64 canonical positions,
//	                     only when the rows are not in canonical order
//	ids extent           records uint64, canonical position order
//	aux extent           opaque blob (the WAL layer stores the
//	                     hierarchical-compaction spec here), CRC-protected
//
// A layer's directory entry names its pos extent's first page, and 0
// means it has none: its canonical positions are the identity (row j is
// the layer's j-th position), which is every layer outside shell mode.
// Page 0 always holds the directory, so 0 can never be a real extent.
// Files from before this rule store every pos extent and still load.
//
// Every number is little-endian; floats are exact IEEE bits, so a v2
// round trip is bit-identical. Layer extents start on page boundaries —
// the paging unit of the mmap serving mode and the granularity of the
// paper's Eq. 2 cost model (one random access per layer, sequential
// pages within it).
//
// Crash safety is the atomic-replace discipline of WriteFS; the
// directory and aux CRCs are recovery hygiene on top (a file that does
// appear under the real name but fails its CRC is reported ErrCorrupt
// and recovery falls back to the previous epoch).

// v2 fixed directory header layout (offsets in bytes).
const (
	v2OffMagic    = 0
	v2OffDim      = 8
	v2OffRecords  = 12
	v2OffLayers   = 20
	v2OffFlags    = 24
	v2OffDirPages = 28
	v2OffIDsPage  = 32
	v2OffAuxPage  = 36
	v2OffAuxBytes = 40
	v2OffAuxCRC   = 44
	v2OffDirCRC   = 48
	v2HeaderBytes = 52

	v2FlagShells = 1 << 0
)

func pagesFor(bytes int) int { return (bytes + PageSize - 1) / PageSize }

// v2EntryBytes returns the directory footprint of one layer entry.
func v2EntryBytes(dim int, shell *core.ShellTableExport) int {
	n := 8 /*count*/ + 8 /*data+pos start pages*/ + 8 /*maxNorm*/ + 16*dim
	if shell != nil {
		n += 8*dim /*center*/ + 24 /*cnorm, cosA, sinA*/ + 4 /*bucket count*/
		n += len(shell.Buckets) * (12 /*lo, hi, axis*/ + 16 /*rmax, maxNorm*/ + 16*dim)
	}
	return n
}

// MarshalV2 serializes the index's columnar state (plus an opaque aux
// blob) into the page-aligned v2 layout. The format stores layers only,
// so a pending delta buffer is folded into a private copy first; the
// receiver is untouched.
func MarshalV2(ix *core.Index, aux []byte) ([]byte, error) {
	d := ix.Dim()
	if d <= 0 || d > 1024 {
		return nil, fmt.Errorf("storage: cannot marshal %d-dimensional index", d)
	}
	if ix.HasDelta() {
		folded, err := ix.CompactedClone()
		if err != nil {
			return nil, fmt.Errorf("storage: fold pending delta: %w", err)
		}
		ix = folded
	}
	cols, err := ix.ExportColumnar()
	if err != nil {
		return nil, err
	}
	ids := ix.PositionOrderedIDs()
	withShells := len(cols) > 0 && cols[0].Shell != nil

	dirBytes := v2HeaderBytes
	for k := range cols {
		dirBytes += v2EntryBytes(d, cols[k].Shell)
	}
	dirPages := pagesFor(dirBytes)

	// Plan the extents: per layer data then pos (none for identity
	// positions, which keep pos page 0), then ids, then aux.
	page := dirPages
	dataPage := make([]int, len(cols))
	posPage := make([]int, len(cols))
	for k := range cols {
		dataPage[k] = page
		page += pagesFor(len(cols[k].Data) * 8)
		if cols[k].Pos != nil {
			posPage[k] = page
			page += pagesFor(len(cols[k].Pos) * 8)
		}
	}
	idsPage := page
	page += pagesFor(len(ids) * 8)
	auxPage := page
	page += pagesFor(len(aux))
	buf := make([]byte, page*PageSize)

	le := binary.LittleEndian
	copy(buf[v2OffMagic:], MagicV2[:])
	le.PutUint32(buf[v2OffDim:], uint32(d))
	le.PutUint64(buf[v2OffRecords:], uint64(len(ids)))
	le.PutUint32(buf[v2OffLayers:], uint32(len(cols)))
	if withShells {
		le.PutUint32(buf[v2OffFlags:], v2FlagShells)
	}
	le.PutUint32(buf[v2OffDirPages:], uint32(dirPages))
	le.PutUint32(buf[v2OffIDsPage:], uint32(idsPage))
	le.PutUint32(buf[v2OffAuxPage:], uint32(auxPage))
	le.PutUint32(buf[v2OffAuxBytes:], uint32(len(aux)))
	le.PutUint32(buf[v2OffAuxCRC:], crc32.ChecksumIEEE(aux))

	off := v2HeaderBytes
	putF := func(v float64) {
		le.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	putU32 := func(v uint32) {
		le.PutUint32(buf[off:], v)
		off += 4
	}
	for k := range cols {
		cl := &cols[k]
		le.PutUint64(buf[off:], uint64(len(cl.Data)/d))
		off += 8
		putU32(uint32(dataPage[k]))
		putU32(uint32(posPage[k]))
		putF(cl.MaxNorm)
		for _, v := range cl.AxMin {
			putF(v)
		}
		for _, v := range cl.AxMax {
			putF(v)
		}
		if withShells {
			sh := cl.Shell
			for _, v := range sh.Center {
				putF(v)
			}
			putF(sh.CNorm)
			putF(sh.CosA)
			putF(sh.SinA)
			putU32(uint32(len(sh.Buckets)))
			for bi := range sh.Buckets {
				b := &sh.Buckets[bi]
				putU32(uint32(b.Lo))
				putU32(uint32(b.Hi))
				putU32(uint32(b.Axis))
				putF(b.RMax)
				putF(b.MaxNorm)
				for _, v := range b.AxMin {
					putF(v)
				}
				for _, v := range b.AxMax {
					putF(v)
				}
			}
		}

		// Extents.
		dOff := dataPage[k] * PageSize
		for i, v := range cl.Data {
			le.PutUint64(buf[dOff+8*i:], math.Float64bits(v))
		}
		pOff := posPage[k] * PageSize
		for i, p := range cl.Pos {
			le.PutUint64(buf[pOff+8*i:], uint64(int64(p)))
		}
	}
	iOff := idsPage * PageSize
	for i, id := range ids {
		le.PutUint64(buf[iOff+8*i:], id)
	}
	copy(buf[auxPage*PageSize:], aux)

	// Directory CRC last, over the full directory pages with the field
	// zeroed (it is zero right now — nothing has written it yet).
	le.PutUint32(buf[v2OffDirCRC:], crc32.ChecksumIEEE(buf[:dirPages*PageSize]))
	return buf, nil
}

// v2Layer is one parsed directory entry with extents resolved to byte
// ranges of the file.
type v2Layer struct {
	count            int
	dataOff, dataLen int // byte range of the vector extent
	posOff, posLen   int // byte range of the position extent; 0, 0 = identity
	maxNorm          float64
	axMin, axMax     []float64
	shell            *core.ShellTableExport
}

// pages is the layer's page-aligned extent footprint: the sequential
// reads one access to it costs, and the unit the resident-bytes budget
// accounts.
func (l *v2Layer) pages() int {
	return pagesFor(l.dataLen) + pagesFor(l.posLen)
}

// v2Dir is a fully parsed v2 directory.
type v2Dir struct {
	dim            int
	records        int
	withShells     bool
	dirPages       int
	layers         []v2Layer
	idsOff         int
	auxOff, auxLen int
}

// parseV2 validates and decodes the directory of a v2 file. buf must be
// the complete file content (or mapping).
func parseV2(buf []byte) (*v2Dir, error) {
	v, err := FormatVersion(buf)
	if err != nil {
		return nil, err
	}
	if v != 2 {
		return nil, fmt.Errorf("%w: %d (want 2)", ErrBadVersion, v)
	}
	if len(buf) < v2HeaderBytes || len(buf)%PageSize != 0 {
		return nil, fmt.Errorf("%w: v2 file is %d bytes, not page-aligned", ErrCorrupt, len(buf))
	}
	le := binary.LittleEndian
	dir := &v2Dir{
		dim:      int(le.Uint32(buf[v2OffDim:])),
		records:  int(le.Uint64(buf[v2OffRecords:])),
		dirPages: int(le.Uint32(buf[v2OffDirPages:])),
	}
	layerCount := int(le.Uint32(buf[v2OffLayers:]))
	flags := le.Uint32(buf[v2OffFlags:])
	dir.withShells = flags&v2FlagShells != 0
	if dir.dim <= 0 || dir.dim > 1024 {
		return nil, fmt.Errorf("%w: dimension %d", ErrCorrupt, dir.dim)
	}
	if layerCount < 0 || layerCount > 1<<24 || dir.records < 0 {
		return nil, fmt.Errorf("%w: %d layers / %d records", ErrCorrupt, layerCount, dir.records)
	}
	if dir.dirPages <= 0 || dir.dirPages*PageSize > len(buf) {
		return nil, fmt.Errorf("%w: directory spans %d pages of a %d-page file", ErrCorrupt, dir.dirPages, len(buf)/PageSize)
	}

	// CRC before trusting any variable-length field.
	stored := le.Uint32(buf[v2OffDirCRC:])
	crc := crc32.NewIEEE()
	crc.Write(buf[:v2OffDirCRC])
	crc.Write([]byte{0, 0, 0, 0})
	crc.Write(buf[v2OffDirCRC+4 : dir.dirPages*PageSize])
	if crc.Sum32() != stored {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrCorrupt)
	}

	dirEnd := dir.dirPages * PageSize
	off := v2HeaderBytes
	need := func(n int) error {
		if off+n > dirEnd {
			return fmt.Errorf("%w: truncated directory", ErrCorrupt)
		}
		return nil
	}
	getF := func() float64 {
		v := math.Float64frombits(le.Uint64(buf[off:]))
		off += 8
		return v
	}
	getFs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = getF()
		}
		return out
	}
	getU32 := func() int {
		v := int(le.Uint32(buf[off:]))
		off += 4
		return v
	}

	dir.layers = make([]v2Layer, layerCount)
	total := 0
	filePages := len(buf) / PageSize
	checkExtent := func(startPage, bytes int) (int, error) {
		if startPage < dir.dirPages || startPage > filePages || startPage*PageSize+bytes > len(buf) {
			return 0, fmt.Errorf("%w: extent [page %d, +%d bytes] outside file", ErrCorrupt, startPage, bytes)
		}
		return startPage * PageSize, nil
	}
	for k := 0; k < layerCount; k++ {
		if err := need(8 + 8 + 8 + 16*dir.dim); err != nil {
			return nil, err
		}
		l := &dir.layers[k]
		count := int(le.Uint64(buf[off:]))
		off += 8
		if count <= 0 || count > dir.records {
			return nil, fmt.Errorf("%w: layer %d holds %d records", ErrCorrupt, k+1, count)
		}
		l.count = count
		total += count
		dataPage := getU32()
		posPage := getU32()
		l.dataLen = count * dir.dim * 8
		if l.dataOff, err = checkExtent(dataPage, l.dataLen); err != nil {
			return nil, err
		}
		if posPage != 0 {
			l.posLen = count * 8
			if l.posOff, err = checkExtent(posPage, l.posLen); err != nil {
				return nil, err
			}
		}
		l.maxNorm = getF()
		l.axMin = getFs(dir.dim)
		l.axMax = getFs(dir.dim)
		if dir.withShells {
			if err := need(8*dir.dim + 24 + 4); err != nil {
				return nil, err
			}
			sh := &core.ShellTableExport{Center: getFs(dir.dim)}
			sh.CNorm = getF()
			sh.CosA = getF()
			sh.SinA = getF()
			nb := getU32()
			if nb < 0 || nb > count {
				return nil, fmt.Errorf("%w: layer %d has %d shell buckets", ErrCorrupt, k+1, nb)
			}
			if err := need(nb * (12 + 16 + 16*dir.dim)); err != nil {
				return nil, err
			}
			sh.Buckets = make([]core.ShellBucketExport, nb)
			for bi := range sh.Buckets {
				b := &sh.Buckets[bi]
				b.Lo = getU32()
				b.Hi = getU32()
				b.Axis = getU32()
				b.RMax = getF()
				b.MaxNorm = getF()
				b.AxMin = getFs(dir.dim)
				b.AxMax = getFs(dir.dim)
			}
			l.shell = sh
		}
	}
	if total != dir.records {
		return nil, fmt.Errorf("%w: layers hold %d records, header says %d", ErrCorrupt, total, dir.records)
	}

	idsPage := int(le.Uint32(buf[v2OffIDsPage:]))
	if dir.idsOff, err = checkExtent(idsPage, dir.records*8); err != nil {
		return nil, err
	}
	auxPage := int(le.Uint32(buf[v2OffAuxPage:]))
	dir.auxLen = int(le.Uint32(buf[v2OffAuxBytes:]))
	if dir.auxOff, err = checkExtent(auxPage, dir.auxLen); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf[dir.auxOff:dir.auxOff+dir.auxLen]) != le.Uint32(buf[v2OffAuxCRC:]) {
		return nil, fmt.Errorf("%w: aux blob checksum mismatch", ErrCorrupt)
	}
	return dir, nil
}

// columnarFromV2 materializes core.ColumnarLayer views over a parsed v2
// file. With zeroCopy the data/pos extents are reinterpreted in place
// when the platform allows (native little-endian, 64-bit int, aligned
// base) and buf must outlive the returned layers; otherwise — and
// always for ids, which maintenance may write — heap copies are
// decoded. Either way the bytes consumed are identical, so the two
// paths produce bit-identical indexes.
func columnarFromV2(buf []byte, dir *v2Dir, zeroCopy bool) ([]core.ColumnarLayer, []uint64, error) {
	cols := make([]core.ColumnarLayer, len(dir.layers))
	for k := range dir.layers {
		l := &dir.layers[k]
		cl := &cols[k]
		cl.MaxNorm = l.maxNorm
		cl.AxMin = l.axMin
		cl.AxMax = l.axMax
		cl.Shell = l.shell
		n := l.count * dir.dim
		if data, ok := float64sView(buf[l.dataOff:l.dataOff+l.dataLen], n); ok && zeroCopy {
			cl.Data = data
		} else {
			cl.Data = decodeFloat64s(buf[l.dataOff:], n)
		}
		if l.posLen == 0 {
			continue // identity positions: core.FromColumnar's nil Pos
		}
		if pos, ok := intsView(buf[l.posOff:l.posOff+l.posLen], l.count); ok && zeroCopy {
			cl.Pos = pos
		} else {
			pos, err := decodeInts(buf[l.posOff:], l.count)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: layer %d: %v", ErrCorrupt, k+1, err)
			}
			cl.Pos = pos
		}
	}
	ids := make([]uint64, dir.records)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(buf[dir.idsOff+8*i:])
	}
	return cols, ids, nil
}

// LoadV2Bytes decodes a v2 checkpoint fully onto the heap — the serving
// path when mmap is off (and the mmap stub the race-instrumented tests
// exercise). No reference to buf is retained. Returns the index and the
// aux blob.
func LoadV2Bytes(buf []byte, opt core.Options) (*core.Index, []byte, error) {
	dir, err := parseV2(buf)
	if err != nil {
		return nil, nil, err
	}
	cols, ids, err := columnarFromV2(buf, dir, false)
	if err != nil {
		return nil, nil, err
	}
	ix, err := core.FromColumnar(dir.dim, cols, ids, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	aux := append([]byte(nil), buf[dir.auxOff:dir.auxOff+dir.auxLen]...)
	return ix, aux, nil
}
