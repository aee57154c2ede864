package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mlid/internal/core"
)

// cloneResult deep-copies a Result, following the trace pointers, so a later
// comparison sees whether anything wrote into the original after the fact.
func cloneResult(r Result) Result {
	c := r
	c.Series = append([]SeriesPoint(nil), r.Series...)
	c.PortStats = append([]PortStat(nil), r.PortStats...)
	c.Traces = nil
	for _, tr := range r.Traces {
		cp := *tr
		cp.Hops = append([]TraceHop(nil), tr.Hops...)
		c.Traces = append(c.Traces, &cp)
	}
	return c
}

// TestRunIndependentOfPriorRuns pins the recycled-arena contract: Run and
// RunBatch build on state a finished run left in simPool, and the result must
// depend on the configuration alone — never on which runs, of which fabric
// size, VL count or feature set, the state served before. The golden and
// scenario cases plus a traced run and two batches run forward, then in
// reverse, then from two goroutines at once; every order must agree. The
// Results of the first pass are kept and must be unchanged by every later
// run, traces included: no Result may alias arena memory.
func TestRunIndependentOfPriorRuns(t *testing.T) {
	type runCase struct {
		name string
		run  func() (any, error)
	}
	var cases []runCase
	addRun := func(name string, cfg Config) {
		cases = append(cases, runCase{name, func() (any, error) { return Run(cfg) }})
	}
	for _, tc := range goldenCases(t) {
		addRun(tc.name, tc.cfg)
	}
	for _, tc := range scenarioCases(t) {
		addRun(tc.name, tc.cfg)
	}
	// Without draining, transport flows end the run with packets still
	// unacknowledged and receivers still holding out-of-order windows: the
	// state a recycled transport table must not carry into the next run. In
	// reverse order it runs right before the last scenario case, whose
	// transport reuses its tables.
	undrained := scenarioCases(t)[3].cfg
	undrained.Transport = &TransportConfig{MaxRetries: 2, DrainNs: -1}
	addRun("transport-undrained", undrained)
	traced := scenarioCases(t)[0].cfg
	traced.TracePackets = 64
	addRun("uniform-traced", traced)
	for _, bc := range []BatchConfig{
		{Subnet: mustSubnet(t, 4, 2, core.NewMLID()), DataVLs: 2, Seed: 9},
		{Subnet: mustSubnet(t, 8, 2, core.NewSLID()), DataVLs: 1, Seed: 5},
	} {
		bc.Messages = AllToAll(bc.Subnet.Tree, 512)
		name := fmt.Sprintf("batch-%s", bc.Subnet.Tree)
		cases = append(cases, runCase{name, func() (any, error) { return RunBatch(bc) }})
	}

	// pass runs the cases in the given order into a case-indexed slice.
	pass := func(order []int) ([]any, error) {
		out := make([]any, len(cases))
		for _, i := range order {
			res, err := cases[i].run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cases[i].name, err)
			}
			out[i] = res
		}
		return out, nil
	}
	forwardOrder := make([]int, len(cases))
	reverseOrder := make([]int, len(cases))
	for i := range cases {
		forwardOrder[i] = i
		reverseOrder[i] = len(cases) - 1 - i
	}

	first, err := pass(forwardOrder)
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]any, len(first))
	for i, res := range first {
		kept[i] = res
		if r, ok := res.(Result); ok {
			kept[i] = cloneResult(r)
		}
	}
	for i, c := range cases {
		if r, ok := first[i].(Result); ok && c.name == "uniform-traced" && len(r.Traces) == 0 {
			t.Fatal("traced case recorded no traces")
		}
	}

	reversed, err := pass(reverseOrder)
	if err != nil {
		t.Fatal(err)
	}
	var concurrent [2][]any
	var errs [2]error
	var wg sync.WaitGroup
	for g, order := range [2][]int{forwardOrder, reverseOrder} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[g], errs[g] = pass(order)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, c := range cases {
		for _, other := range []struct {
			order string
			res   any
		}{
			{"reverse", reversed[i]},
			{"concurrent forward", concurrent[0][i]},
			{"concurrent reverse", concurrent[1][i]},
		} {
			if !reflect.DeepEqual(first[i], other.res) {
				t.Errorf("%s: %s order differs from the first pass:\n first: %+v\n %s: %+v",
					c.name, other.order, first[i], other.order, other.res)
			}
		}
		if !reflect.DeepEqual(first[i], kept[i]) {
			t.Errorf("%s: the first pass's Result changed after later runs reused its state", c.name)
		}
	}
}
