package sim

import "mlid/internal/arena"

// pool recycles the state of finished runs. A figure sweep is hundreds of
// short independent runs on a handful of fabric sizes, so building each run's
// arrays, packet slabs, latency histogram rows, calendar and per-node
// generators from scratch cost far more allocation than the events
// themselves. build takes a *Sim from the pool and resizes every buffer in
// place (see arena.Recycle); Run and RunBatch put it back once the result is
// assembled. The packet queues are not among the buffers: they are threaded
// through the packets (pktList), so a saturated run's source backlog lives in
// the packet slabs alone and a later run with deeper or more source queues
// finds nothing to regrow.
var pool arena.Pool[Sim]

// release returns a finished run's state to pool. An idle arena stays at its
// high-water size until exit, so the pool keeps none from a fabric of more
// than 512 nodes (the paper's largest, FT(32,2)), whose arrays indexed by
// node pair grow with N², nor from a traced run, whose packets point into the
// Result's traces. Before keeping an arena it drops what the caller owns or
// was handed: the Config, the tree, the subnet's tables, the Result, and the
// fault state's plan and repair view. No Result aliases arena memory:
// buildResult builds Series and PortStats fresh, and the traces handed out
// are never appended to again.
func (s *Sim) release() {
	if len(s.nodes) > 512 || s.cfg.TracePackets > 0 {
		return
	}
	clear(s.lfts)
	if f := s.faults; f != nil {
		*f = faultRun{reselMask: f.reselMask, reselEpoch: f.reselEpoch}
	}
	s.cfg, s.tree, s.selector, s.selCtx, s.res, s.err = Config{}, nil, nil, SelectContext{}, Result{}, nil
	pool.Put(s)
}

// reset empties the event queues for a new run, keeping the calendar
// buckets' and far heap's backing arrays.
func (e *engine) reset() {
	for i := range e.buckets {
		e.buckets[i].evs = e.buckets[i].evs[:0]
		e.buckets[i].head = 0
	}
	*e = engine{buckets: e.buckets, far: e.far[:0]}
}
