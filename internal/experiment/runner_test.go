package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestCampaignRunOrdering: results come back in point order regardless of
// worker count, and a worker pool computes exactly what the serial loop does.
func TestCampaignRunOrdering(t *testing.T) {
	const n = 37
	fn := func(i int) (int, error) {
		// Vary per-point cost so parallel workers finish out of order.
		v := i
		for k := 0; k < (i%7)*10_000; k++ {
			v = v*31 + 7
		}
		return v, nil
	}
	serial, err := campaignRun(n, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		par, err := campaignRun(n, workers, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: results differ from serial run", workers)
		}
	}
}

// TestCampaignRunErrors: every point runs even when one fails, and the error
// surfaced is the lowest-indexed one — the same error a serial loop that
// kept going would report first.
func TestCampaignRunErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 9)
		_, err := campaignRun(9, workers, func(i int) (int, error) {
			ran[i] = true
			if i == 2 || i == 6 {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 2 failed" {
			t.Fatalf("workers=%d: got error %v, want lowest-indexed point 2", workers, err)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: point %d never ran", workers, i)
			}
		}
	}
	if _, err := campaignRun(3, 1, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("boom")
		}
		return i, nil
	}); err == nil {
		t.Fatal("error swallowed")
	}
}

// runHeapOnly runs the study a builder returned with HeapOnlyScheduler set
// on every point's Config: the engine's fallback heap path, which the
// determinism tests diff against the calendar path.
func runHeapOnly[R any](s study[R], err error) ([]R, error) {
	for i := range s.points {
		s.points[i].cfg.HeapOnlyScheduler = true
	}
	return runStudy(s, err)
}

// TestCampaignSerialParallelIdentity is the determinism contract for the
// parallel sweep campaigns: every study must produce byte-identical rows
// whether its points run on one worker or the full pool. The chaos and SM
// studies are additionally soaked run-to-run elsewhere; this test pins the
// serial/parallel axis specifically by capping the pool to one worker.
func TestCampaignSerialParallelIdentity(t *testing.T) {
	runCapped := func(cap int, f func() (any, error)) any {
		t.Helper()
		campaignWorkerCap = cap
		defer func() { campaignWorkerCap = 0 }()
		out, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(name string, f func() (any, error)) {
		serial := runCapped(1, f)
		parallel := runCapped(0, f)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: serial and parallel campaign outputs differ", name)
		}
	}

	dspec := QuickDegradedSpec()
	dspec.Rates = dspec.Rates[:1]
	check("degraded", func() (any, error) { return DegradedStudy(dspec) })

	cspec := QuickChaosSpec()
	cspec.FaultRates = cspec.FaultRates[:1]
	check("chaos", func() (any, error) { return ChaosStudy(cspec) })

	check("sm", func() (any, error) { return SMStudy(QuickSMSpec()) })

	fig := FigureSpec{ID: "PAR", Network: Network{4, 2}, Pattern: "centric", Loads: []float64{0.2, 0.6},
		VLs: []int{1, 2}, Replicas: 2, WarmupNs: 5_000, MeasureNs: 20_000, Seed: 5}
	check("figure", func() (any, error) { return fig.Run() })

	check("recovery", func() (any, error) { return RecoveryStudy(QuickRecoverySpec()) })

	aspec := QuickAdaptiveSpec()
	aspec.WarmupNs, aspec.MeasureNs = 5_000, 20_000
	aspec.Selectors = []string{"rank", "adaptive"}
	check("adaptive", func() (any, error) { return AdaptiveStudy(aspec) })

	check("ablations", func() (any, error) { return RunAblations(true) })

	check("scaling", func() (any, error) { return ScalingStudy([]Network{{4, 2}}, true) })
}
