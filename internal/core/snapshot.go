package core

// Snapshot support. A serving system wants copy-on-write semantics: an
// immutable index answers queries lock-free while a mutator applies a
// batch of maintenance to a private clone and then publishes it with one
// atomic pointer swap. Clone provides the copy; attribute vectors are
// shared between the original and the clone because nothing in this
// package ever writes into a stored vector (alloc copies the caller's
// slice, unalloc drops the reference, and the hull reads positions only).

// Clone returns an independent copy of the index. Maintenance on the
// clone (Insert, Delete, cascades) never alters the original, so a
// query running against the original concurrently with maintenance on
// the clone is safe.
func (ix *Index) Clone() *Index {
	// A deep clone owns eager record views; forcing the receiver's
	// deferred ones (columnar.go) is safe — the lazy build never
	// mutates logical state.
	pts, layerOf := ix.recViews()
	cp := &Index{
		dim:     ix.dim,
		pts:     append([][]float64(nil), pts...),
		ids:     append([]uint64(nil), ix.ids...),
		layers:  make([][]int, len(ix.layers)),
		layerOf: append([]int(nil), layerOf...),
		free:    append([]int(nil), ix.free...),
		tol:     ix.tol,
		seed:    ix.seed,
		workers: ix.workers,
		joggled: ix.joggled,
		// Slabs are immutable once built, so the clone shares them by
		// reference; maintenance on either side moves that side onto
		// fresh slab slices (cutLayers), leaving the other intact.
		slabs:    ix.slabs,
		maxLayer: ix.maxLayer,
		noPrune:  ix.noPrune,
		// Shell tables are derived immutable state exactly like the
		// slabs, and they share the slabs' lifecycle.
		shellMode: ix.shellMode,
		shellTabs: ix.shellTabs,
		// The paging observer describes the shared slab backing, so the
		// clone keeps it until a mutation detaches it.
		slabSrc: ix.slabSrc,
		// The hierarchical compactor is immutable (folds return a
		// successor), so it too is shared by reference.
		cc: ix.cc,
	}
	for k, l := range ix.layers {
		cp.layers[k] = append([]int(nil), l...)
	}
	// A deep clone owns an eager position map. When the receiver's map
	// is deferred (FromColumnar load), build the clone's straight from
	// ids — every position is live there — without forcing the receiver.
	if ix.posOf != nil {
		cp.posOf = make(map[uint64]int, len(ix.posOf))
		for id, p := range ix.posOf {
			cp.posOf[id] = p
		}
	} else {
		cp.posOf = make(map[uint64]int, len(ix.ids))
		for i, id := range ix.ids {
			cp.posOf[id] = i
		}
	}
	// The clone owns its base arrays again (shared is deliberately not
	// carried over), and any pending delta is deep-copied with it.
	if ix.delta != nil {
		cp.delta = ix.delta.clone()
	}
	return cp
}
