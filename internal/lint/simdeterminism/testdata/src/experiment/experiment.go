// Package experiment is a simdeterminism testdata fixture: the experiment
// harness drives the deterministic simulator and its studies are pinned by
// determinism tests, so entropy sources must be flagged here too.
package experiment

import (
	"math/rand"
	"runtime"
	"time"
)

type study struct {
	seed int64
}

func (s *study) badSeedPick() int64 {
	// A study must never derive its seeds or windows from the environment.
	base := time.Now().UnixNano()       // want `call to time\.Now in simulator code`
	return base + int64(rand.Intn(100)) // want `global math/rand Intn in simulator code`
}

func (s *study) goodWorkerPool() int {
	// Negative case: the harness may size worker pools from the host —
	// wall-clock only, every point is independently seeded.
	return runtime.GOMAXPROCS(0) + runtime.NumCPU()
}

func (s *study) goodSeedPick(i int) int64 {
	// Negative case: seeds derived from the configured base are fine, as is
	// a locally seeded generator.
	rng := rand.New(rand.NewSource(s.seed))
	return s.seed + int64(i) + rng.Int63()%7
}
