package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Fingerprint hashes the index's layer partition: the layer count,
// each layer's size, and the sorted record IDs of each layer. Two
// indexes fingerprint equal iff they assign the same IDs to the same
// layers in the same layer order — regardless of how the records are
// stored internally (build order, disk order, post-maintenance free
// list). That representation independence is what makes the
// fingerprint usable as a recovery oracle: an index reloaded from a
// checkpoint and replayed from the WAL must fingerprint identically to
// the live snapshot it reconstructs, and the parallel-build
// determinism gate (onionbench -build-scaling) compares fingerprints
// across worker counts the same way.
//
// IDs are sorted within each layer because the paper's guarantees
// attach to layer membership, not to intra-layer storage order: every
// query result, every cascade, and the on-disk format's semantics
// depend only on which records a layer contains.
func (ix *Index) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(ix.layers)))
	ids := make([]uint64, 0, 64)
	for _, layer := range ix.layers {
		ids = ids[:0]
		for _, p := range layer {
			ids = append(ids, ix.ids[p])
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		put(uint64(len(ids)))
		for _, id := range ids {
			put(id)
		}
	}
	// A pending delta is part of the logical state: fold in its sorted
	// insert IDs and tombstone IDs behind a sentinel. An empty delta
	// contributes nothing, so delta-free indexes keep their historical
	// fingerprints (the WAL recovery oracle depends on that).
	if d := ix.delta; d != nil {
		put(^uint64(0))
		ids = ids[:0]
		for s, id := range d.ids {
			if !d.deadSlots.has(s) {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, set := range [][]uint64{ids, d.tombIDs(ix.ids)} {
			put(uint64(len(set)))
			for _, id := range set {
				put(id)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ContentFingerprint hashes the index's logical content: the sorted
// (ID, vector-bits) multiset of live records, ignoring layer structure
// entirely. Two indexes content-fingerprint equal iff they hold the
// same records — whether one carries a pending delta buffer and the
// other was rebuilt from scratch. This is the recovery oracle where a
// fold ran after the checkpoint: recovery replays the log into the
// checkpoint's delta while the live snapshot serves the fold's layers,
// so the layer partitions legitimately differ, but the record set (and
// therefore every query answer) must match exactly.
func (ix *Index) ContentFingerprint() string {
	recs := ix.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(recs)))
	put(uint64(ix.dim))
	for _, r := range recs {
		put(r.ID)
		for _, x := range r.Vector {
			put(math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
