// Package arena recycles per-run scratch state. Unlike a sync.Pool, a Pool
// survives garbage collections: it keeps at most GOMAXPROCS idle values, each
// at its high-water size until exit, so a value put back must hold nothing of
// its caller's. Recycle and RecycleKeep resize a value's buffers in place.
package arena

import (
	"runtime"
	"sync"
)

// Pool is a mutex-guarded LIFO free list; the zero value is empty. Get hands
// a value to one caller at a time, so concurrent runs never share one.
type Pool[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get returns the most recently put idle value, or a new zero T.
func (p *Pool[T]) Get() (v *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		v, p.idle[n-1], p.idle = p.idle[n-1], nil, p.idle[:n-1]
		return v
	}
	return new(T)
}

// Put keeps v for a later Get, unless GOMAXPROCS values are idle already.
func (p *Pool[T]) Put(v *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < runtime.GOMAXPROCS(0) {
		p.idle = append(p.idle, v)
	}
}

// Recycle returns buf resized to n zeroed elements, reusing its backing array
// when the capacity suffices and allocating only when it does not.
func Recycle[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// RecycleKeep is Recycle for elements that own buffers (a generator, a
// retransmit queue): instead of zeroing, it passes each of the n elements to
// keep, which resets it in place; elements past n keep theirs for later.
func RecycleKeep[T any](buf []T, n int, keep func(*T)) []T {
	if c := cap(buf); c < n {
		buf = append(buf[:c], make([]T, n-c)...)
	}
	buf = buf[:n]
	for i := range buf {
		keep(&buf[i])
	}
	return buf
}
