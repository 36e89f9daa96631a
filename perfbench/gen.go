package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
)

// The benchmark owns its input generator so that no change to the
// program (internal/workload, onionserve -random) can alter what a
// given seed produces. Everything below is a pure function of the seed.

// Generator streams: each use of the seed draws its own sequence.
const (
	streamCorpus = iota + 1
	streamPool
	streamZipfMeasure
	streamZipfWarm
	streamFresh
	streamWarmFresh
	streamCheck
	streamGate
	streamReader
	streamMutations
	streamChurn
	streamReference
)

// rng is splitmix64: tiny, fast, and fully specified here.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1) with 53 random bits.
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// normal draws N(0,1) by the Marsaglia polar method.
func (r *rng) normal() float64 {
	for {
		u := 2*r.float() - 1
		v := 2*r.float() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Distributions of the corpus attribute vectors: the paper's two.
const (
	distGaussian = "gaussian" // N(0,1) per attribute
	distUniform  = "uniform"  // U(-0.5, 0.5) per attribute
)

// record is one corpus record as the benchmark models it.
type record struct {
	ID  uint64
	Vec []float64
}

func (r *rng) vector(dist string, d int) []float64 {
	v := make([]float64, d)
	for j := range v {
		if dist == distUniform {
			v[j] = r.float() - 0.5
		} else {
			v[j] = r.normal()
		}
	}
	return v
}

// genCorpus returns n records with IDs 1..n.
func genCorpus(seed int64, dist string, n, d int) []record {
	r := newRNG(seed, streamCorpus)
	out := make([]record, n)
	for i := range out {
		out[i] = record{ID: uint64(i + 1), Vec: r.vector(dist, d)}
	}
	return out
}

// genWeights returns n fresh non-negative weight vectors in [0,1)^d
// from the given stream.
func genWeights(seed int64, stream uint64, n, d int) [][]float64 {
	r := newRNG(seed, stream)
	out := make([][]float64, n)
	for i := range out {
		w := make([]float64, d)
		for j := range w {
			w[j] = r.float()
		}
		out[i] = w
	}
	return out
}

// zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverse CDF over a precomputed table.
type zipf struct {
	cdf []float64
	r   *rng
}

func newZipf(r *rng, s float64, n int) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf, r: r}
}

func (z *zipf) next() int {
	u := z.r.float()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// mutation is one write of the durable workload: an insert when Vec is
// non-nil, a delete of ID otherwise.
type mutation struct {
	ID  uint64
	Vec []float64
}

// genMutations returns n seeded mutations against corpus, two inserts
// to one delete in expectation. Inserts take fresh IDs above the corpus;
// deletes take distinct corpus IDs, so every delete hits a base record
// and every mutation grows the server's delta buffer by exactly one.
func genMutations(seed int64, corpus []record, n int) []mutation {
	r := newRNG(seed, streamMutations)
	d := len(corpus[0].Vec)
	perm := make([]uint64, len(corpus))
	for i := range perm {
		perm[i] = corpus[i].ID
	}
	nextID := uint64(len(corpus)) + 1
	out := make([]mutation, n)
	del := 0
	for i := range out {
		if r.intn(3) == 0 && del < len(perm) {
			// Partial Fisher-Yates: the first del entries are the chosen IDs.
			j := del + r.intn(len(perm)-del)
			perm[del], perm[j] = perm[j], perm[del]
			out[i] = mutation{ID: perm[del]}
			del++
			continue
		}
		out[i] = mutation{ID: nextID, Vec: r.vector(distGaussian, d)}
		nextID++
	}
	return out
}

// genChurn returns the write tail of the read workloads: blocks of
// size inserts of fresh records followed by size deletes. The deletes of
// every block but the last remove that block's own inserts, in seeded
// order, so the server's delta buffer never holds more than 2*size
// records; the last block deletes distinct corpus records instead, so
// the tail leaves size inserts and size deletes behind for the oracle.
func genChurn(seed int64, corpus []record, blocks, size int) []mutation {
	r := newRNG(seed, streamChurn)
	d := len(corpus[0].Vec)
	nextID := uint64(len(corpus)) + 1
	out := make([]mutation, 0, 2*blocks*size)
	for b := 0; b < blocks; b++ {
		ids := make([]uint64, size)
		for i := range ids {
			ids[i] = nextID
			out = append(out, mutation{ID: nextID, Vec: r.vector(distGaussian, d)})
			nextID++
		}
		if b == blocks-1 {
			for i := range ids {
				ids[i] = corpus[i*len(corpus)/size+r.intn(len(corpus)/size)].ID
			}
		}
		for i := len(ids) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
		for _, id := range ids {
			out = append(out, mutation{ID: id})
		}
	}
	return out
}

// Corpus file: the records the server process builds from.
// Little-endian: n, d (uint64), then per record the ID (uint64) and d
// float64 attribute bits.

func encodeCorpus(recs []record) []byte {
	d := len(recs[0].Vec)
	buf := make([]byte, 16+len(recs)*8*(d+1))
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(recs)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(d))
	off := 16
	for _, rec := range recs {
		binary.LittleEndian.PutUint64(buf[off:], rec.ID)
		off += 8
		for _, x := range rec.Vec {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(x))
			off += 8
		}
	}
	return buf
}

func decodeCorpus(buf []byte) ([]record, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("corpus: short header")
	}
	n := binary.LittleEndian.Uint64(buf[0:])
	d := binary.LittleEndian.Uint64(buf[8:])
	if d == 0 || uint64(len(buf)) != 16+n*8*(d+1) {
		return nil, fmt.Errorf("corpus: size %d does not match n=%d d=%d", len(buf), n, d)
	}
	recs := make([]record, n)
	off := 16
	for i := range recs {
		recs[i].ID = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		v := make([]float64, d)
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		recs[i].Vec = v
	}
	return recs, nil
}

func writeCorpus(path string, recs []record) error {
	return os.WriteFile(path, encodeCorpus(recs), 0o644)
}
