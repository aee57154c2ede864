// Package sim is a simdeterminism testdata fixture: its leaf name matches a
// simulator core package, so entropy sources must be flagged.
package sim

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

type engine struct {
	now int64
	rng *rand.Rand
}

func newEngine(seed int64) *engine {
	// Negative case: seeding a private generator is the sanctioned pattern.
	return &engine{rng: rand.New(rand.NewSource(seed))}
}

func (e *engine) badEntropy() int64 {
	t := time.Now()                     // want `call to time\.Now in simulator code`
	_ = time.Since(time.Unix(0, e.now)) // want `call to time\.Since in simulator code`
	jitter := rand.Intn(10)             // want `global math/rand Intn in simulator code`
	_ = rand.Float64()                  // want `global math/rand Float64 in simulator code`
	pid := os.Getpid()                  // want `os\.Getpid in simulator code`
	_ = os.Getenv("SEED")               // want `os\.Getenv in simulator code`
	return t.UnixNano() + int64(jitter) + int64(pid)
}

func (e *engine) badTimers() {
	// A transport-style retransmit timeout must be an event on the
	// simulation clock, never a runtime timer.
	time.Sleep(10 * time.Millisecond)          // want `time\.Sleep in simulator code`
	_ = time.After(time.Second)                // want `time\.After in simulator code`
	_ = time.Tick(time.Second)                 // want `time\.Tick in simulator code`
	_ = time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc in simulator code`
	_ = time.NewTimer(time.Second)             // want `time\.NewTimer in simulator code`
	_ = time.NewTicker(time.Second)            // want `time\.NewTicker in simulator code`
}

func (e *engine) badHostSizing() int {
	// The engine must take every parameter from the configuration; sizing
	// anything from the host makes a run machine-dependent.
	n := runtime.NumCPU()      // want `runtime\.NumCPU in the engine core`
	n += runtime.GOMAXPROCS(0) // want `runtime\.GOMAXPROCS in the engine core`
	return n
}

func (e *engine) goodEntropy() int64 {
	// Negative cases: the seeded generator, constants and duration
	// arithmetic are all deterministic.
	d := 10 * time.Millisecond
	v := e.rng.Int63()
	e.now += int64(d) + v
	return e.now
}

func (e *engine) racySelect(a, b chan int) int {
	select { // want `select with 2 channel cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func (e *engine) singleCaseSelect(a chan int) int {
	// Negative case: one channel case plus default cannot race.
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}
