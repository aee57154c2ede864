package sim

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

// BenchmarkEngineSchedule measures the raw scheduler: schedule+pop cycles
// through the calendar fast path and the heap fallback, reporting ns/event so
// engine regressions are visible independently of the figure benchmarks.
func BenchmarkEngineSchedule(b *testing.B) {
	bench := func(b *testing.B, horizon Time, heapOnly bool) {
		var e engine
		e.heapOnly = heapOnly
		// Keep a standing population of 64 events so pops never drain the
		// queue to a trivial state.
		const standing = 64
		for i := 0; i < standing; i++ {
			e.schedule(e.now+Time(i%int(horizon))+1, event{kind: evKick})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev, ok := e.pop(1 << 62)
			if !ok {
				b.Fatal("queue drained")
			}
			_ = ev
			e.schedule(e.now+Time(i%int(horizon))+1, event{kind: evKick})
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
	b.Run("calendar/near", func(b *testing.B) { bench(b, 256, false) })
	b.Run("calendar/mixed", func(b *testing.B) { bench(b, 2*calSize, false) })
	b.Run("heap", func(b *testing.B) { bench(b, 256, true) })
}

// runSmallConfig is BenchmarkRunSmall's run: FT(8,2) MLID, uniform 0.6
// B/ns/node on 2 VLs over a 60 us horizon. TestRunSmallAllocs bounds its
// steady-state allocations.
func runSmallConfig(tb testing.TB) Config {
	sn := mustSubnet(tb, 8, 2, core.NewMLID())
	return Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs:     2,
		OfferedLoad: 0.6,
		WarmupNs:    10_000,
		MeasureNs:   50_000,
		Seed:        1,
	}
}

// BenchmarkRunSmall measures one full small simulation, reporting ns/event
// and allocs/op for the whole hot path (engine + model + packet pool).
func BenchmarkRunSmall(b *testing.B) {
	cfg := runSmallConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}
