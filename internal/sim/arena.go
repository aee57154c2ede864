package sim

import "sync"

// simPool recycles the state of finished runs. A figure sweep is hundreds of
// short independent runs on a handful of fabric sizes, so building each run's
// arrays, packet slabs, calendar and per-node generators from scratch cost
// far more allocation than the events themselves. build takes a *Sim from
// the pool and resizes every buffer in place (see recycle); Run and RunBatch
// put it back once the result is assembled. The pool hands an arena to one
// Get at a time, so concurrent runs never share one; it keeps about one idle
// arena per P and lets the garbage collector drop idle ones.
var simPool = sync.Pool{New: func() any { return new(Sim) }}

// release returns a finished run's state to simPool. The caller must hold no
// reference into it afterwards. No Result aliases arena memory: buildResult
// returns a copy of the run's Result with Series and PortStats built fresh,
// and the next build starts a new Result, so the traces handed out are never
// appended to again.
func (s *Sim) release() { simPool.Put(s) }

// recycle returns buf resized to n zeroed elements, reusing its backing array
// when the capacity suffices and allocating only when it does not.
func recycle[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// recycleKeep is recycle for elements that own buffers of their own (a
// waiting list, a generator, a flow's retransmit queue): instead of zeroing,
// it passes each of the n elements to keep, which resets the element in place
// while holding on to what it owns. Elements past n keep their buffers for a
// later, larger run.
func recycleKeep[T any](buf []T, n int, keep func(*T)) []T {
	buf = buf[:cap(buf)]
	if len(buf) < n {
		buf = append(buf, make([]T, n-len(buf))...)
	}
	buf = buf[:n]
	for i := range buf {
		keep(&buf[i])
	}
	return buf
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
