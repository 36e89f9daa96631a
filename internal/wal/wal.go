// Package wal makes onionserve durable. It has two halves:
//
//   - this file: a write-ahead log format — length-prefixed,
//     CRC32-checksummed records, each holding one insert or delete
//     batch — with a replayer that tolerates a torn final record
//     (the tail a crash mid-write leaves behind);
//   - manager.go: the recovery and checkpoint protocol that pairs the
//     log with atomic full-index checkpoints in the paged
//     storage format.
//
// The durability invariant the serving layer builds on: a mutation is
// acknowledged only after its log record is on stable storage (per the
// configured fsync mode), and replaying checkpoint + log prefix always
// reproduces exactly some previously published snapshot — never a torn
// one, never a future one. Replay applies each logged batch to the
// checkpoint's delta buffer, exactly as the serving layer applied it,
// and computes no hull: the recovered index is the checkpoint's layers
// plus the log's delta, which is what lets the crash tests compare
// core.Index fingerprints (delta included) instead of weaker
// properties.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
)

// magic identifies a WAL file; the trailing byte is the format version.
var magic = [8]byte{'O', 'N', 'I', 'O', 'N', 'W', 'L', 1}

// HeaderSize is the fixed size of the file header:
// magic (8) + dim uint32 + reserved uint32.
const HeaderSize = 16

// frameOverhead is the per-record framing: payload length + CRC32.
const frameOverhead = 8

// Per-record payload layout: [1 op][4 count][count entries].
const (
	opInsert = byte(1) // entry: [8 id][dim × 8 float bits]
	opDelete = byte(2) // entry: [8 id]
)

// ErrBadHeader marks a file that is not a WAL (or is torn inside the
// 16-byte header, which recovery treats as an empty log).
var ErrBadHeader = errors.New("wal: bad or truncated header")

// Mutation is one logged operation: exactly one of Insert/Delete is
// non-empty, mirroring the serving layer's op granularity.
type Mutation struct {
	Insert []core.Record
	Delete []uint64
}

// ApplyDelta applies the mutation to ix's delta buffer, as the serving
// layer applied it before logging it: the replay of crash recovery and
// of a fold's journal.
func (m Mutation) ApplyDelta(ix *core.Index) error {
	if len(m.Insert) > 0 {
		return ix.InsertDelta(m.Insert)
	}
	_, err := ix.DeleteDelta(m.Delete, false)
	return err
}

// Committer is the durability hook the serving layer calls with every
// applied batch before publishing the snapshot that contains it. next
// is the fully applied (still unpublished, immutable hereafter)
// snapshot; implementations may retain it for checkpointing.
type Committer interface {
	CommitBatch(muts []Mutation, next *core.Index) error
}

// EncodeHeader renders the WAL file header for an index of the given
// dimension.
func EncodeHeader(dim int) []byte {
	buf := make([]byte, HeaderSize)
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(dim))
	return buf
}

// ParseHeader validates a WAL file header and returns the dimension.
func ParseHeader(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadHeader, len(buf))
	}
	for i, b := range magic {
		if buf[i] != b {
			return 0, ErrBadHeader
		}
	}
	dim := binary.LittleEndian.Uint32(buf[8:])
	if dim == 0 || dim > 1024 {
		return 0, fmt.Errorf("%w: dimension %d", ErrBadHeader, dim)
	}
	return int(dim), nil
}

// AppendMutation appends one framed record for m to dst and returns the
// extended slice. The payload length is fixed by (op, count, dim), so
// the encoding is canonical: Replay of any valid record re-encodes to
// the identical bytes (a property FuzzWALReplay leans on).
func AppendMutation(dst []byte, m Mutation, dim int) ([]byte, error) {
	var payload []byte
	switch {
	case len(m.Insert) > 0 && len(m.Delete) > 0:
		return nil, errors.New("wal: mutation has both insert and delete")
	case len(m.Insert) > 0:
		payload = make([]byte, 5, 5+len(m.Insert)*(8+8*dim))
		payload[0] = opInsert
		binary.LittleEndian.PutUint32(payload[1:], uint32(len(m.Insert)))
		var scratch [8]byte
		for _, r := range m.Insert {
			if len(r.Vector) != dim {
				return nil, fmt.Errorf("wal: record %d has dimension %d, want %d", r.ID, len(r.Vector), dim)
			}
			binary.LittleEndian.PutUint64(scratch[:], r.ID)
			payload = append(payload, scratch[:]...)
			for _, v := range r.Vector {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				payload = append(payload, scratch[:]...)
			}
		}
	default:
		payload = make([]byte, 5, 5+len(m.Delete)*8)
		payload[0] = opDelete
		binary.LittleEndian.PutUint32(payload[1:], uint32(len(m.Delete)))
		var scratch [8]byte
		for _, id := range m.Delete {
			binary.LittleEndian.PutUint64(scratch[:], id)
			payload = append(payload, scratch[:]...)
		}
	}
	var frame [frameOverhead]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, frame[:]...)
	return append(dst, payload...), nil
}

// decodeRecord parses one framed record at the start of buf. ok=false
// means the bytes do not form a complete valid record — a torn tail or
// corruption; the caller stops there.
func decodeRecord(buf []byte, dim int) (m Mutation, size int, ok bool) {
	if len(buf) < frameOverhead {
		return Mutation{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(buf))
	if plen < 5 || plen > len(buf)-frameOverhead {
		return Mutation{}, 0, false
	}
	payload := buf[frameOverhead : frameOverhead+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return Mutation{}, 0, false
	}
	count := int(binary.LittleEndian.Uint32(payload[1:]))
	body := payload[5:]
	switch payload[0] {
	case opInsert:
		entry := 8 + 8*dim
		if count != len(body)/entry || len(body)%entry != 0 {
			return Mutation{}, 0, false
		}
		m.Insert = make([]core.Record, count)
		vecs := make([]float64, count*dim)
		for i := range m.Insert {
			off := i * entry
			v := vecs[i*dim : (i+1)*dim : (i+1)*dim]
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8+8*j:]))
			}
			m.Insert[i] = core.Record{ID: binary.LittleEndian.Uint64(body[off:]), Vector: v}
		}
	case opDelete:
		if count != len(body)/8 || len(body)%8 != 0 {
			return Mutation{}, 0, false
		}
		m.Delete = make([]uint64, count)
		for i := range m.Delete {
			m.Delete[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
	default:
		return Mutation{}, 0, false
	}
	return m, frameOverhead + plen, true
}

// Replay scans the record region of a WAL (everything after the
// header) and returns every fully intact mutation in order, plus the
// byte length of the valid prefix. It never fails: the first record
// that is short, checksum-mismatched, or structurally invalid ends the
// scan — by the commit protocol only the final record can be torn, so
// everything before it is trustworthy and everything from it on is
// garbage a crash wrote. Callers truncate the file to the valid prefix
// so the torn bytes can never resurface.
func Replay(buf []byte, dim int) (muts []Mutation, valid int) {
	for valid < len(buf) {
		m, size, ok := decodeRecord(buf[valid:], dim)
		if !ok {
			break
		}
		muts = append(muts, m)
		valid += size
	}
	return muts, valid
}

// RecordEnds returns the end offset (relative to the start of buf) of
// every valid record in the record region — the truncation points at
// which a crashed log still contains that record. The crash-recovery
// harness iterates truncation byte-by-byte between consecutive ends to
// prove torn tails never surface.
func RecordEnds(buf []byte, dim int) []int {
	var ends []int
	off := 0
	for off < len(buf) {
		_, size, ok := decodeRecord(buf[off:], dim)
		if !ok {
			break
		}
		off += size
		ends = append(ends, off)
	}
	return ends
}
