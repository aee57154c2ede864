package ib_test

import (
	"math/rand"
	"testing"

	"mlid/internal/ib"
)

// TestLFTClonePropertyNoAliasing is a seeded property test of LFT.Clone:
// over random table sizes and contents, mutating the clone never shows
// through the original, mutating the original never shows through the
// clone, and Entries() hands out an independent copy too. The live
// simulator leans on exactly this — it clones the table of every switch a
// fault plan can dirty, then rewrites the clones mid-run while the
// caller's pristine subnet must stay byte-identical (the SM's repair state
// reads it as the baseline of every trap's repair).
func TestLFTClonePropertyNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		size := 2 + rng.Intn(512)
		orig := ib.NewLFT(size)
		for lid := 1; lid < size; lid++ {
			if rng.Intn(2) == 0 {
				if err := orig.Set(ib.LID(lid), uint8(rng.Intn(64)+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := orig.Entries()

		clone := orig.Clone()
		if clone.Size() != orig.Size() {
			t.Fatalf("trial %d: clone size %d != %d", trial, clone.Size(), orig.Size())
		}
		// Mutate the clone at random positions; the original must not move.
		for k := 0; k < 32; k++ {
			lid := ib.LID(1 + rng.Intn(size-1))
			if err := clone.Set(lid, uint8(rng.Intn(64)+1)); err != nil {
				t.Fatal(err)
			}
		}
		for lid := 0; lid < size; lid++ {
			if got := orig.Port(ib.LID(lid)); got != before[lid] {
				t.Fatalf("trial %d: clone mutation aliased original at LID %d: %d -> %d",
					trial, lid, before[lid], got)
			}
		}
		// And the other direction: freeze the clone, mutate the original.
		frozen := clone.Entries()
		for k := 0; k < 32; k++ {
			lid := ib.LID(1 + rng.Intn(size-1))
			if err := orig.Set(lid, uint8(rng.Intn(64)+1)); err != nil {
				t.Fatal(err)
			}
		}
		for lid := 0; lid < size; lid++ {
			if got := clone.Port(ib.LID(lid)); got != frozen[lid] {
				t.Fatalf("trial %d: original mutation aliased clone at LID %d", trial, lid)
			}
		}
		// Entries() must be a copy, not a view.
		snap := orig.Entries()
		was := orig.Port(1)
		snap[1] = was + 1
		if orig.Port(1) != was {
			t.Fatalf("trial %d: Entries() aliases the table", trial)
		}
	}
}
