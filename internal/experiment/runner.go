package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"mlid/internal/sim"
)

// Campaign runner: every sweep of this package — the figures
// (FigureSpec.Run), the -fault, -chaos, -degraded, -adaptive and -smstudy
// studies, the ablations and the scaling study — is a study: a list of
// independent points, one simulation each, whose rows must not depend on
// execution order. campaignRun executes the points on a bounded worker pool
// with point-indexed result assembly: every point writes only results[i],
// rows come out in point order, and the first error by point index is
// returned, so serial (workers=1) and parallel runs are byte-identical.

// study is the one shape of every sweep: its points in row order and the
// reduction of a point's simulation result to its row. Reductions that need
// the whole campaign (figures average replicas, scaling takes peaks) run
// after study.run returns.
type study[R any] struct {
	points []point[R]
	// static, when set, runs on point i's worker before its simulation and
	// fills the row's static columns: the degraded study's repair-and-verify
	// view.
	static func(i int, row *R) error
	// reduce fills a point's row from its simulation result.
	reduce func(res sim.Result, row *R) error
}

// point is one simulation of a study: its configuration, its row's
// identifying columns (known before the run), and the name its errors carry.
type point[R any] struct {
	name string
	cfg  sim.Config
	row  R
}

// run executes the study's points on the campaign runner and returns their
// rows in point order.
func (s study[R]) run() ([]R, error) {
	n := len(s.points)
	return campaignRun(n, campaignWorkers(n), func(i int) (R, error) {
		p := &s.points[i]
		row := p.row
		if s.static != nil {
			if err := s.static(i, &row); err != nil {
				return row, err
			}
		}
		res, err := sim.Run(p.cfg)
		if err != nil {
			return row, fmt.Errorf("experiment: %s: %w", p.name, err)
		}
		err = s.reduce(res, &row)
		return row, err
	})
}

// runStudy runs the study a builder returned, or returns the builder's error.
func runStudy[R any](s study[R], err error) ([]R, error) {
	if err != nil {
		return nil, err
	}
	return s.run()
}

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
