package core

import (
	"errors"
	"fmt"
)

// Empty returns an index of the given dimension holding no records and
// no layers. Build refuses an empty record set because peeling nothing
// is meaningless, but a serving system needs the state to be
// representable: an index whose records were all deleted checkpoints as
// a zero-layer file, and crash recovery must be able to reconstruct
// that state before replaying the WAL tail (which may immediately
// insert into it). Insertions into an empty index cascade normally.
func Empty(dim int, opt Options) (*Index, error) {
	if dim <= 0 {
		return nil, errors.New("core: dimension must be positive")
	}
	return &Index{
		dim:       dim,
		posOf:     make(map[uint64]int),
		tol:       opt.Tol,
		seed:      opt.Seed,
		workers:   opt.Parallelism,
		shellMode: opt.Shells,
	}, nil
}

// FromLayers reconstructs an Index from an existing layer partition —
// such as one a format v1 file stores (storage's read-only migrator) —
// without re-running the convex-hull peeling. The caller asserts the
// layers are (or were produced as) a valid layered convex hull; basic
// shape invariants (consistent dimension, unique IDs, no empty layers)
// are verified here, and VerifyOrdering offers a probabilistic check of
// the geometric property itself.
func FromLayers(layers [][]Record, opt Options) (*Index, error) {
	if len(layers) == 0 {
		return nil, errors.New("core: no layers")
	}
	total := 0
	for k, l := range layers {
		if len(l) == 0 {
			return nil, fmt.Errorf("core: layer %d is empty", k+1)
		}
		total += len(l)
	}
	dim := len(layers[0][0].Vector)
	if dim == 0 {
		return nil, errors.New("core: zero-dimensional record")
	}
	ix := &Index{
		dim:       dim,
		pts:       make([][]float64, 0, total),
		ids:       make([]uint64, 0, total),
		layerOf:   make([]int, 0, total),
		posOf:     make(map[uint64]int, total),
		tol:       opt.Tol,
		seed:      opt.Seed,
		workers:   opt.Parallelism,
		shellMode: opt.Shells,
	}
	slabs := make([]layerSlab, 0, len(layers))
	maxLayer := 0
	for k, l := range layers {
		// Each layer's vectors land in one contiguous row-major arena:
		// the per-record pts views are sub-slices of it, so the columnar
		// slab for this layer is the arena itself — the deserialize path
		// gets slabs without a second copy.
		arena := make([]float64, len(l)*dim)
		slabIDs := make([]uint64, len(l))
		positions := make([]int, len(l))
		for i, r := range l {
			if len(r.Vector) != dim {
				return nil, fmt.Errorf("core: layer %d record %d has dimension %d, want %d", k+1, i, len(r.Vector), dim)
			}
			if _, dup := ix.posOf[r.ID]; dup {
				return nil, fmt.Errorf("core: duplicate record ID %d", r.ID)
			}
			pos := len(ix.pts)
			vec := arena[i*dim : (i+1)*dim : (i+1)*dim]
			copy(vec, r.Vector)
			ix.pts = append(ix.pts, vec)
			ix.ids = append(ix.ids, r.ID)
			ix.layerOf = append(ix.layerOf, k)
			ix.posOf[r.ID] = pos
			positions[i] = pos
			slabIDs[i] = r.ID
		}
		ix.layers = append(ix.layers, positions)
		slabs = append(slabs, newLayerSlab(arena, slabIDs, positions, dim))
		if len(l) > maxLayer {
			maxLayer = len(l)
		}
	}
	ix.slabs = slabs
	ix.maxLayer = maxLayer
	if ix.shellMode {
		// Bucket-order the slabs and build the shell tables. The reorder
		// allocates fresh slab arrays, so the pts sub-slices keep viewing
		// the original per-layer arenas in storage order.
		ix.buildShellTables()
	}
	return ix, nil
}

// VerifyOrdering probabilistically checks the optimally-linearly-
// ordered property (paper Definition 1, with >= at ties) over the given
// weight vectors, returning the first violation found. A nil error from
// a healthy sample of directions gives high confidence that a
// FromLayers reconstruction is a genuine Onion index.
func (ix *Index) VerifyOrdering(weights [][]float64, slack float64) error {
	for qi, w := range weights {
		if len(w) != ix.dim {
			return fmt.Errorf("core: verify query %d has dimension %d, want %d", qi, len(w), ix.dim)
		}
		prev := 0.0
		for k, layer := range ix.layers {
			best := 0.0
			for i, p := range layer {
				var s float64
				for j, wj := range w {
					s += wj * ix.pts[p][j]
				}
				if i == 0 || s > best {
					best = s
				}
			}
			if k > 0 && best > prev+slack {
				return fmt.Errorf("core: layer %d max %v exceeds layer %d max %v for weights %v",
					k+1, best, k, prev, w)
			}
			prev = best
		}
	}
	return nil
}
