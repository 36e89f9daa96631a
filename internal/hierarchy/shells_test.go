package hierarchy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestClusteredFoldPreservesShellMode pins the shell-mode half of the
// compaction contract: an index built with Options.Shells that
// compacts through an attached cluster compactor must come out of
// every fold with shell mode still on, the per-layer shell tables
// rebuilt over the folded layering, and answers bit-identical to a
// shells-free flat rebuild and the brute-force scan — before a fold,
// with inserts and tombstones pending, and after it. The shell walk
// prunes in every state, tombstones included.
func TestClusteredFoldPreservesShellMode(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(77))
	bopt := core.Options{Seed: 7, Shells: true}

	logical := make(map[uint64][]float64)
	init := randRecords(rng, 1, 900, d)
	for _, r := range init {
		logical[r.ID] = r.Vector
	}
	ix, err := core.Build(init, bopt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if !ix.ShellPruning() {
		t.Fatal("Options.Shells did not stick")
	}
	if _, err := Attach(ix, CompactorOptions{Clusters: 5, Build: bopt, Seed: 11}); err != nil {
		t.Fatalf("attach: %v", err)
	}

	check := func(step string) {
		t.Helper()
		recs := sortedRecords(logical)
		flat, err := core.Build(recs, core.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: flat rebuild: %v", step, err)
		}
		skipped := 0
		for trial := 0; trial < 6; trial++ {
			w := make([]float64, d)
			for j := range w {
				w[j] = rng.NormFloat64()
			}
			for _, n := range []int{1, 7, 40} {
				got, st, err := ix.TopN(w, n)
				if err != nil {
					t.Fatalf("%s: TopN: %v", step, err)
				}
				skipped += st.RecordsSkippedByShells
				if err := sameIDScore(got, bruteTopN(recs, w, n)); err != nil {
					t.Fatalf("%s: shells vs brute (n=%d): %v", step, n, err)
				}
				fres, _, err := flat.TopN(w, n)
				if err != nil {
					t.Fatalf("%s: flat TopN: %v", step, err)
				}
				if err := sameIDScore(got, fres); err != nil {
					t.Fatalf("%s: shells vs flat rebuild (n=%d): %v", step, n, err)
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: shell tables never skipped a record", step)
		}
	}

	check("initial")

	nextID := uint64(10_000)
	for round := 0; round < 4; round++ {
		ins := randRecords(rng, nextID, 30, d)
		nextID += uint64(len(ins))
		if err := ix.InsertDelta(ins); err != nil {
			t.Fatalf("round %d: InsertDelta: %v", round, err)
		}
		for _, r := range ins {
			logical[r.ID] = r.Vector
		}
		check(fmt.Sprintf("round %d insert-only delta", round))

		live := sortedRecords(logical)
		dels := make([]uint64, 0, 10)
		seen := make(map[uint64]bool)
		for len(dels) < 10 {
			id := live[rng.Intn(len(live))].ID
			if !seen[id] {
				seen[id] = true
				dels = append(dels, id)
			}
		}
		if _, err := ix.DeleteDelta(dels, false); err != nil {
			t.Fatalf("round %d: DeleteDelta: %v", round, err)
		}
		for _, id := range dels {
			delete(logical, id)
		}
		check(fmt.Sprintf("round %d tombstoned delta", round))

		if err := ix.Compact(); err != nil {
			t.Fatalf("round %d: Compact: %v", round, err)
		}
		if ix.ClusterCompactor() == nil {
			t.Fatalf("round %d: compactor detached by Compact", round)
		}
		if !ix.ShellPruning() {
			t.Fatalf("round %d: clustered fold dropped shell mode", round)
		}
		check(fmt.Sprintf("round %d post-fold", round))
	}

	// Background compaction path: the compacted clone keeps shell mode
	// and prunes, while the origin is untouched.
	if err := ix.InsertDelta(randRecords(rng, nextID, 20, d)); err != nil {
		t.Fatalf("InsertDelta before CompactedClone: %v", err)
	}
	cp, err := ix.CompactedClone()
	if err != nil {
		t.Fatalf("CompactedClone: %v", err)
	}
	if !cp.ShellPruning() {
		t.Fatal("CompactedClone dropped shell mode")
	}
	w := []float64{0.5, -1, 0.25}
	if _, st, err := cp.TopN(w, 5); err != nil {
		t.Fatalf("clone TopN: %v", err)
	} else if st.RecordsSkippedByShells == 0 {
		t.Fatal("compacted clone's shell tables never skipped a record")
	}
	if !ix.HasDelta() {
		t.Fatal("origin's delta vanished")
	}
}
