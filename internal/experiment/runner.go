package experiment

import (
	"runtime"
	"sync"
)

// Campaign runner: every sweep — the figures (FigureSpec.Run) and the
// studies (-degraded, -smstudy, -chaos, -recovery) — is a list of
// independent points, (curve, load, replica) runs or (scenario, scheme) and
// (scheme, mode) cells, whose outputs must not depend on execution order.
// campaignRun executes the points on a bounded worker pool with
// point-indexed result assembly: every point writes only results[i], rows
// come out in serial-loop order, and the first error by point index is
// returned, so serial (workers=1) and parallel runs are byte-identical.

// campaignWorkerCap, when positive, bounds every campaign pool. Tests use it
// to force the serial path and prove serial/parallel byte-identity.
var campaignWorkerCap int

// campaignWorkers is the default pool size for a campaign of n points.
func campaignWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if campaignWorkerCap > 0 && w > campaignWorkerCap {
		w = campaignWorkerCap
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// campaignRun executes fn(0..n-1) on workers goroutines and returns the
// results in point order. Every point runs to completion even when an
// earlier one fails (they are independent by contract); the error returned
// is the lowest-indexed one, matching what a serial loop would surface.
func campaignRun[R any](n, workers int, fn func(i int) (R, error)) ([]R, error) {
	results := make([]R, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i], errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
