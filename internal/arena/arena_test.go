package arena

import (
	"runtime"
	"testing"
)

// TestPoolKeepsIdleValuesAcrossCollections: what Put keeps, Get returns
// after any number of garbage collections, most recent first, and Put keeps
// no more than GOMAXPROCS idle values.
func TestPoolKeepsIdleValuesAcrossCollections(t *testing.T) {
	var p Pool[[]int]
	procs := runtime.GOMAXPROCS(0)
	vals := make([]*[]int, procs+1)
	for i := range vals {
		vals[i] = p.Get()
		*vals[i] = []int{i}
	}
	for _, v := range vals {
		p.Put(v)
	}
	runtime.GC()
	runtime.GC()
	for i := procs - 1; i >= 0; i-- {
		if got := p.Get(); got != vals[i] {
			t.Fatalf("Get returned %v, want value %d, the most recently kept", *got, i)
		}
	}
	if got := p.Get(); *got != nil {
		t.Fatalf("Get returned %v past the %d kept values, want a new zero value", *got, procs)
	}
}

func TestRecycle(t *testing.T) {
	buf := []int{1, 2, 3, 4}
	got := Recycle(buf, 3)
	if len(got) != 3 || &got[0] != &buf[0] || got[0] != 0 || got[2] != 0 {
		t.Fatalf("Recycle(buf, 3) = %v: want 3 zeroed elements in buf's array", got)
	}
	if got := Recycle(buf, 5); len(got) != 5 || &got[0] == &buf[0] {
		t.Fatalf("Recycle(buf, 5) = %v: want a new array of 5", got)
	}
}

func TestRecycleKeep(t *testing.T) {
	buf := [][]int{{1}, {2, 2}, {3, 3, 3}}
	got := RecycleKeep(buf[:1], 2, func(e *[]int) { *e = (*e)[:0] })
	if len(got) != 2 || cap(got[0]) != 1 || cap(got[1]) != 2 {
		t.Fatalf("RecycleKeep = %v: want two emptied elements that keep their arrays", got)
	}
	got = RecycleKeep(got, 4, func(e *[]int) {})
	if len(got) != 4 || cap(got[2]) != 3 || got[3] != nil {
		t.Fatalf("RecycleKeep = %v: want the third element kept and a zero fourth", got)
	}
}
