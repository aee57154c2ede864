package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlid/internal/sim"
)

// span is one call into a layer's public function during the traced pass.
// Start and End are nanoseconds since the traced pass began; Parent is the
// ID of the span that made the call (0 for the pass itself).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the traced pass's spans in memory, plus the counters that are
// measured where the work happens: the SelectDLID callback accumulators
// (verify walks in parallel, so they are atomic), the pool tails, and every
// sim.Result in point order.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	selectCalls, selectNs atomic.Int64
	stragglerNs           atomic.Int64
	// results and verifyWarnings are appended by the replay after each pool
	// has finished, in point order, so they need no lock.
	results        []sim.Result
	verifyWarnings int
	// profShares is each profiled layer's share of CPU time, in percent.
	profShares map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name under parent and returns fn's error.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	id := t.nextID.Add(1)
	start := time.Since(t.t0)
	err := fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return err
}

// pool runs fn(0..n-1) the way the studies' own worker pools do — workers
// goroutines fed point indices in order, every point run to completion, the
// lowest-indexed error returned — and wraps each call in an
// experiment.point span. The time between the first worker running out of
// points and the last point finishing is the pool's straggler tail.
func (t *tracer) pool(parent int64, n, workers int, fn func(i int, span int64) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	exits := make([]time.Time, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				errs[i] = t.do("experiment.point", parent, func(id int64) error { return fn(i, id) })
			}
			exits[w] = time.Now()
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	end := time.Now()
	first := exits[0]
	for _, e := range exits[1:] {
		if e.Before(first) {
			first = e
		}
	}
	t.stragglerNs.Add(int64(end.Sub(first)))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sorted returns the spans ordered by start time, then ID.
func (t *tracer) sorted() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.sorted() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics folds the traced pass into the per-layer metrics. wallMedian
// is the untraced wall_s median the tracing overhead is measured against.
func (t *tracer) layerMetrics(wallMedian float64) (map[string]float64, error) {
	byName := map[string][]float64{}
	var pass float64
	for _, s := range t.sorted() {
		byName[s.Name] = append(byName[s.Name], s.seconds())
		if s.Name == "pass" {
			pass = s.seconds()
		}
	}
	if pass == 0 {
		return nil, fmt.Errorf("bench: traced pass recorded no pass span")
	}
	sum := func(name string) float64 {
		var v float64
		for _, d := range byName[name] {
			v += d
		}
		return v
	}
	count := func(name string) float64 { return float64(len(byName[name])) }

	var c struct {
		events, delivered, retransmits, acks, ctrlBytes, txFailed, dups int64
		trapsSent, trapsDelivered, smps, smpRetries, sweeps, failovers  int64
		lftUpdates, dropped, reroutes, epochs                           int64
	}
	for _, r := range t.results {
		c.events += r.Events
		c.delivered += r.TotalDelivered
		c.retransmits += r.Retransmits
		c.acks += r.AcksSent
		c.ctrlBytes += r.CtrlBytesSent
		c.txFailed += r.Failed
		c.dups += r.DupDeliveries
		c.trapsSent += r.TrapsSent
		c.trapsDelivered += r.TrapsDelivered
		c.smps += r.SMPsSent
		c.smpRetries += r.SMPRetries
		c.sweeps += r.SMSweeps
		c.failovers += r.Failovers
		c.lftUpdates += r.LFTUpdates
		c.dropped += r.DroppedTotal
		c.reroutes += r.Reroutes
		c.epochs += int64(r.VerifiedEpochs)
	}
	runs := byName["sim.run"]
	selectS := float64(t.selectNs.Load()) / 1e9
	m := map[string]float64{
		"topology.new_s":           sum("topology.new"),
		"ib.configure_s":           sum("ib.configure"),
		"ib.configure_calls":       count("ib.configure"),
		"sim.run_s":                sum("sim.run"),
		"sim.runs":                 count("sim.run"),
		"sim.run_p50_s":            median(runs),
		"sim.run_max_s":            maxOf(runs),
		"sim.events":               float64(c.events),
		"sim.delivered":            float64(c.delivered),
		"sim.ns_per_event":         ratio(sum("sim.run")*1e9, float64(c.events)),
		"sim.events_per_delivered": ratio(float64(c.events), float64(c.delivered)),

		"transport.retransmits":   float64(c.retransmits),
		"transport.acks":          float64(c.acks),
		"transport.ctrl_bytes":    float64(c.ctrlBytes),
		"transport.failed":        float64(c.txFailed),
		"transport.goodput_ratio": ratio(float64(c.delivered), float64(c.delivered+c.retransmits+c.dups)),

		"sm.traps_sent":          float64(c.trapsSent),
		"sm.trap_delivery_ratio": ratio(float64(c.trapsDelivered), float64(c.trapsSent)),
		"sm.smps_sent":           float64(c.smps),
		"sm.smp_retries":         float64(c.smpRetries),
		"sm.sweeps":              float64(c.sweeps),
		"sm.failovers":           float64(c.failovers),
		"faults.lft_updates":     float64(c.lftUpdates),
		"faults.dropped":         float64(c.dropped),
		"faults.reroutes":        float64(c.reroutes),
		"sim.verified_epochs":    float64(c.epochs),

		"core.repair_subnet_s":     sum("core.repair_subnet"),
		"core.repair_subnet_calls": count("core.repair_subnet"),
		"core.select_dlid_calls":   float64(t.selectCalls.Load()),
		"core.select_dlid_ns":      float64(t.selectNs.Load()),

		"verify.run_s":    sum("verify.run"),
		"verify.self_s":   sum("verify.run") - selectS,
		"verify.calls":    count("verify.run"),
		"verify.warnings": float64(t.verifyWarnings),

		"experiment.points":      count("experiment.point"),
		"experiment.parallelism": sum("experiment.point") / pass,
		"experiment.straggler_s": float64(t.stragglerNs.Load()) / 1e9,

		"trace.wall_s":       pass,
		"trace.overhead_pct": ratio(pass-wallMedian, wallMedian) * 100,
	}
	for _, l := range profLayers {
		m["prof."+l+"_pct"] = t.profShares[l]
	}
	return m, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
