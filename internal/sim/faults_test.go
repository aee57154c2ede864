package sim

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// faultCfg is the demo scenario of the fault subsystem: FT(4,2) under MLID,
// uniform traffic at a comfortably sub-saturation load, with the first up-link
// of node 0's leaf (switch 2, abstract port 2, toward spine 0) killed in the
// middle of the measurement window.
func faultCfg(t *testing.T, scheme core.Scheme, plan *FaultPlan) Config {
	t.Helper()
	sn := mustSubnet(t, 4, 2, scheme)
	return Config{
		Subnet:  sn,
		Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs: 2, OfferedLoad: 0.3,
		WarmupNs: 20_000, MeasureNs: 100_000,
		SeriesIntervalNs: 5_000,
		FaultPlan:        plan,
		// Every SM epoch of the fault suite is statically verified: the
		// mid-repair tables must never contain a defect the dead links
		// don't explain (internal/verify's severity contract).
		VerifyEpochs: true,
		Seed:         21,
	}
}

// TestFaultRecoveryTransient is the acceptance scenario for live fault
// injection: a spine link dies mid-measurement, packets drop (and are counted,
// never misrouted) until the SM's trap latency elapses, the staged table
// updates land at trap + processing time, and — under MLID with fault-avoiding
// reselection — accepted traffic returns to its pre-fault level with zero
// drops once the transient drains.
func TestFaultRecoveryTransient(t *testing.T) {
	const downNs = 50_000
	plan := &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: downNs}},
		Reselect: true,
	}
	cfg := faultCfg(t, core.NewMLID(), plan)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.FirstFaultNs != downNs {
		t.Errorf("FirstFaultNs = %d, want %d", res.FirstFaultNs, downNs)
	}
	if res.DroppedTotal == 0 || res.DroppedWindow == 0 {
		t.Fatalf("expected drops after the link died, got total=%d window=%d",
			res.DroppedTotal, res.DroppedWindow)
	}
	if res.DroppedTotal != res.DroppedAtDeadLink+res.DroppedOnDeadLink {
		t.Errorf("drop causes don't sum: total=%d at=%d on=%d",
			res.DroppedTotal, res.DroppedAtDeadLink, res.DroppedOnDeadLink)
	}
	if res.DroppedAtDeadLink == 0 {
		t.Errorf("expected stale-table drops at the dead link, got none")
	}
	if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("packet conservation: delivered+dropped+inflight = %d, generated = %d",
			got, res.TotalGenerated)
	}

	// Drops must begin before the trap fires: the [downNs, trap) series bins
	// hold losses the SM hasn't heard about yet.
	iv := cfg.SeriesIntervalNs
	trapNs := downNs + TrapLatencyNs
	var preTrapDrops int64
	for _, sp := range res.Series {
		if sp.StartNs >= downNs && sp.StartNs < trapNs {
			preTrapDrops += sp.Dropped
		}
	}
	if preTrapDrops == 0 {
		t.Errorf("no drops recorded between link death (%d) and trap (%d)", downNs, trapNs)
	}

	// The SM's repair: only the leaf's ascending entries are remappable, so
	// exactly one staged update lands at trap + SMProcessNs; spine 0's
	// descending entries to the leaf's nodes are irreparable.
	if res.LFTUpdates == 0 || res.LFTEntriesRewritten == 0 {
		t.Fatalf("expected staged LFT updates, got updates=%d entries=%d",
			res.LFTUpdates, res.LFTEntriesRewritten)
	}
	if res.BrokenEntries == 0 {
		t.Errorf("expected irreparable descending entries at the spine, got none")
	}
	minRec := TrapLatencyNs + SMProcessNs
	maxRec := minRec + Time(cfg.Subnet.Tree.Switches())*LFTUpdateNs
	if res.RecoveryNs < minRec || res.RecoveryNs > maxRec {
		t.Errorf("RecoveryNs = %d, want within [%d, %d]", res.RecoveryNs, minRec, maxRec)
	}
	if res.Reroutes == 0 {
		t.Errorf("expected reselection to steer packets off the dead spine, got none")
	}

	// Post-recovery, reselection avoids the broken descending paths entirely:
	// zero drops once in-flight stale packets drain (one drain bin of slack
	// after the last repair).
	repairNs := downNs + res.RecoveryNs
	drainNs := ((repairNs+iv)/iv + 1) * iv
	for _, sp := range res.Series {
		if sp.StartNs >= drainNs && sp.Dropped != 0 {
			t.Errorf("bin %d ns: %d drops after recovery under MLID reselection",
				sp.StartNs, sp.Dropped)
		}
	}

	// Accepted traffic recovers: the post-fault window's mean accepted rate is
	// within 5% of the pre-fault window's.
	avg := func(lo, hi Time) float64 {
		var sum float64
		var n int
		for _, sp := range res.Series {
			if sp.StartNs >= lo && sp.StartNs < hi {
				sum += sp.Accepted
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no series bins in [%d, %d)", lo, hi)
		}
		return sum / float64(n)
	}
	pre := avg(25_000, 50_000)
	post := avg(65_000, 115_000)
	if math.Abs(post-pre)/pre > 0.05 {
		t.Errorf("accepted traffic did not recover: pre=%.6f post=%.6f (%.1f%% off)",
			pre, post, 100*math.Abs(post-pre)/pre)
	}
}

// TestFaultSLIDPersistentDrops contrasts the single-LID scheme: with one LID
// per destination there is no surviving path to reselect, the spine's broken
// descending entries keep forwarding onto the dead link, and drops persist for
// the rest of the run — the behaviour the paper's multiple-LID scheme exists
// to avoid.
func TestFaultSLIDPersistentDrops(t *testing.T) {
	const downNs = 50_000
	plan := &FaultPlan{
		Faults: []LinkFault{{Switch: 2, Port: 2, DownNs: downNs}},
	}
	res, err := Run(faultCfg(t, core.NewSLID(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.BrokenEntries == 0 {
		t.Fatalf("expected broken descending entries under SLID, got none")
	}
	if res.DroppedWindow == 0 {
		t.Fatalf("expected window drops under SLID, got none")
	}
	// Drops continue long after the SM converged: the last measured bin still
	// loses packets to the broken entries.
	repairNs := downNs + res.RecoveryNs
	var lateDrops int64
	for _, sp := range res.Series {
		if sp.StartNs >= repairNs+20_000 {
			lateDrops += sp.Dropped
		}
	}
	if lateDrops == 0 {
		t.Errorf("expected persistent post-recovery drops under SLID, got none after %d ns",
			repairNs+20_000)
	}
	if res.Reroutes != 0 {
		t.Errorf("SLID plan without Reselect counted %d reroutes", res.Reroutes)
	}
}

// TestFaultLinkRevival kills a spine link and brings it back: the second trap
// restores the original tables and drops cease even without reselection.
func TestFaultLinkRevival(t *testing.T) {
	const downNs, upNs = 30_000, 70_000
	plan := &FaultPlan{
		Faults: []LinkFault{{Switch: 2, Port: 2, DownNs: downNs, UpNs: upNs}},
	}
	res, err := Run(faultCfg(t, core.NewSLID(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedTotal == 0 {
		t.Fatalf("expected drops while the link was down")
	}
	if res.LFTUpdates < 2 {
		t.Errorf("expected table updates from both sweeps (down and up), got %d", res.LFTUpdates)
	}
	// After the revival trap's updates land, the restored tables drop nothing.
	restoredNs := upNs + TrapLatencyNs + SMProcessNs +
		Time(res.LFTUpdates)*LFTUpdateNs + 5_000
	for _, sp := range res.Series {
		if sp.StartNs >= restoredNs && sp.Dropped != 0 {
			t.Errorf("bin %d ns: %d drops after the link revived and tables restored",
				sp.StartNs, sp.Dropped)
		}
	}
	if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("packet conservation: delivered+dropped+inflight = %d, generated = %d",
			got, res.TotalGenerated)
	}
}

// TestFaultNodeAttachment kills a node-attachment link: the node's injections
// drop at the dead source port, traffic destined to it drops at the leaf, and
// the run stays conservative.
func TestFaultNodeAttachment(t *testing.T) {
	plan := &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 0, DownNs: 40_000}},
		Reselect: true,
	}
	cfg := faultCfg(t, core.NewMLID(), plan)
	cfg.Reception = ReceptionLink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedOnDeadLink == 0 {
		t.Errorf("expected injection/arrival drops on the dead attachment link")
	}
	if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("packet conservation: delivered+dropped+inflight = %d, generated = %d",
			got, res.TotalGenerated)
	}
}

// TestFaultPlanDeterminism requires a faulted run — link death, flushes, SM
// sweeps, staged updates, random-policy reselection — to produce an identical
// Result when repeated, on both scheduler paths.
func TestFaultPlanDeterminism(t *testing.T) {
	plan := &FaultPlan{
		Faults: []LinkFault{
			{Switch: 2, Port: 2, DownNs: 25_000, UpNs: 60_000},
			{Switch: 0, Port: 1, DownNs: 35_000},
		},
		Reselect: true,
	}
	cfg := faultCfg(t, core.NewMLID(), plan)
	cfg.PathSelect = SelectRandom()
	cfg.TracePackets = 4
	cfg.CollectPortStats = true
	run := func() Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same faulted config, different results:\n a: %+v\n b: %+v", a, b)
	}
	cfg.HeapOnlyScheduler = true
	heapOnly := run()
	if !reflect.DeepEqual(a, heapOnly) {
		t.Errorf("calendar and heap-only scheduler paths disagree on a faulted run:\n cal:  %s\n heap: %s",
			fingerprint(a), fingerprint(heapOnly))
	}
}

// TestEmptyFaultPlanMatchesGolden proves an empty FaultPlan is inert: the
// fault machinery (default timing, zeroed counters; no fault, so no table is
// cloned) reproduces
// the recorded golden fixtures bit-for-bit.
func TestEmptyFaultPlanMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_results.txt"))
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update): %v", err)
	}
	fixtures := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		name, fp, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed fixture line %q", line)
		}
		fixtures[name] = fp
	}
	for _, tc := range goldenCases(t) {
		cfg := tc.cfg
		cfg.FaultPlan = &FaultPlan{}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprint(res); got != fixtures[tc.name] {
			t.Errorf("%s: empty FaultPlan drifted from fixture\n got:  %s\n want: %s",
				tc.name, got, fixtures[tc.name])
		}
		if res.DroppedTotal != 0 || res.LFTUpdates != 0 || res.Reroutes != 0 {
			t.Errorf("%s: empty FaultPlan produced fault activity: %+v", tc.name, res)
		}
	}
}

// TestFaultPlanValidation rejects plans naming nonexistent fabric elements or
// inconsistent times.
func TestFaultPlanValidation(t *testing.T) {
	bad := []*FaultPlan{
		{Faults: []LinkFault{{Switch: 99, Port: 0, DownNs: 1}}},           // bad switch
		{Faults: []LinkFault{{Switch: 0, Port: 7, DownNs: 1}}},            // bad port
		{Faults: []LinkFault{{Switch: 0, Port: -1, DownNs: 1}}},           // bad port
		{Faults: []LinkFault{{Switch: 0, Port: 0, DownNs: -5}}},           // bad time
		{Faults: []LinkFault{{Switch: 0, Port: 0, DownNs: 10, UpNs: 10}}}, // up <= down
	}
	for i, plan := range bad {
		if _, err := Run(faultCfg(t, core.NewMLID(), plan)); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// TestNodeArriveNilUpstream is the regression test for the nil-upstream guard:
// an evNodeArrive dispatched for a packet with no upstream port (as ideal
// reception's hand-off produces) must not schedule a credit for the noPort
// sentinel, which would index out of bounds in dispatch.
func TestNodeArriveNilUpstream(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	cfg.Reception = ReceptionLink
	s := build(cfg.withDefaults())
	p := s.newPkt()
	p.Dst = 0
	p.VL = 0
	s.nodeArrive(0, p)
	for {
		ev, ok := s.pop(1 << 30)
		if !ok {
			break
		}
		if ev.kind == evCredit && ev.a < 0 {
			t.Fatalf("nodeArrive scheduled a credit for a negative upstream port id")
		}
		if ev.kind == evCredit {
			continue
		}
		s.dispatch(ev)
	}
	if s.err != nil {
		t.Fatalf("nodeArrive with nil upstream failed: %v", s.err)
	}
	if s.res.TotalDelivered != 1 {
		t.Fatalf("packet was not delivered: %d", s.res.TotalDelivered)
	}
}

// TestGenerationRateDrift is the satellite soak test for the k-based
// generation clock: over ten million packets at several loads the realized
// injection rate stays within 1e-9 of the configured rate, and generation
// times are strictly increasing. (The retired float accumulator drifted by
// one ulp per packet — parts in 1e7 over a soak run.)
func TestGenerationRateDrift(t *testing.T) {
	const packets = 10_000_000
	for _, load := range []float64{0.3, 0.7, 0.123} {
		ia := float64(DefaultPacketSize) / load
		phase := 0.37 * ia
		first := genTimeAt(phase, ia, 0)
		prev := first
		for k := int64(1); k <= packets; k++ {
			tk := genTimeAt(phase, ia, k)
			if tk <= prev {
				t.Fatalf("load %v: generation times not increasing at k=%d: %d <= %d",
					load, k, tk, prev)
			}
			prev = tk
		}
		ideal := phase + float64(packets)*ia
		if math.Abs(float64(prev)-ideal) > 0.5 {
			t.Fatalf("load %v: k-th time off by %v ns", load, float64(prev)-ideal)
		}
		realized := float64(packets) / float64(prev-first)
		wantRate := 1 / ia
		if relErr := math.Abs(realized-wantRate) / wantRate; relErr > 1e-9 {
			t.Errorf("load %v: realized rate error %.3e exceeds 1e-9", load, relErr)
		}
	}
}

// TestSMTablesConvergeToRepairTarget pins the SM's table-write contract:
// once recovery has quiesced, every live forwarding table equals the repair
// target (pristine tables plus the current overlay), whatever order the
// staged updates landed in. On FT(4,3) under MLID every non-root switch's
// first up-link dies at 40 µs, so the first trap stages sixteen remaps
// LFTUpdateNs apart; switch 19's link revives at 45.1 µs, and the revert its
// trap stages lands before the first trap's remap of switch 19. An update
// that wrote the entries recorded at staging time, instead of the SM's
// current target, would leave switch 19 on the stale remap for good.
func TestSMTablesConvergeToRepairTarget(t *testing.T) {
	sn := mustSubnet(t, 4, 3, core.NewMLID())
	tr := sn.Tree
	var faults []LinkFault
	for sw := 0; sw < tr.Switches(); sw++ {
		id := topology.SwitchID(sw)
		if tr.SwitchLevel(id) == 0 {
			continue
		}
		f := LinkFault{Switch: int32(sw), Port: tr.DownPorts(id), DownNs: 40_000}
		if sw == 19 {
			f.UpNs = 45_100
		}
		faults = append(faults, f)
	}
	for _, mode := range []struct {
		name   string
		inband *InBandSMConfig
	}{{"oracle", nil}, {"inband", &InBandSMConfig{}}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{
				Subnet:      sn,
				Pattern:     traffic.Uniform{Nodes: tr.Nodes()},
				OfferedLoad: 0.3,
				MeasureNs:   300_000,
				FaultPlan:   &FaultPlan{Faults: faults, InBandSM: mode.inband},
			}.withDefaults()
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
			// No generator is scheduled: only the fault and SM events run.
			s := build(cfg)
			s.end = cfg.MeasureNs
			s.scheduleFaults()
			s.runUntil(s.end)
			if s.err != nil {
				t.Fatal(s.err)
			}
			if s.res.LFTUpdates == 0 {
				t.Fatal("no staged updates applied: the scenario exercises nothing")
			}
			target, err := s.faults.repair.TargetLFTs()
			if err != nil {
				t.Fatal(err)
			}
			for sw, want := range target {
				diff, first := 0, ib.LID(0)
				for lid := 1; lid < want.Size(); lid++ {
					if s.lfts[sw].Port(ib.LID(lid)) != want.Port(ib.LID(lid)) {
						if diff == 0 {
							first = ib.LID(lid)
						}
						diff++
					}
				}
				if diff > 0 {
					t.Errorf("switch %d: %d entries off the repair target (first: DLID %d on port %d, target port %d)",
						sw, diff, first, s.lfts[sw].Port(first), want.Port(first))
				}
			}
		})
	}
}

// TestFaultRunLeavesSubnetPristine: a FaultPlan run clones only the tables
// its faults can dirty and reads the configured subnet's own tables for
// every other switch, so runs sharing one subnet, concurrently, must leave
// its tables byte-identical and compute exactly what runs on private
// configurations compute. The plans cover the oracle with a link that dies
// and revives, and the in-band SM with a whole-switch outage.
func TestFaultRunLeavesSubnetPristine(t *testing.T) {
	const m, n = 4, 3
	shared := mustSubnet(t, m, n, core.NewMLID())
	tr := shared.Tree
	mid := findSwitch(t, tr, 1)
	plans := []*FaultPlan{
		{
			Faults:   []LinkFault{{Switch: mid, Port: tr.DownPorts(topology.SwitchID(mid)), DownNs: 30_000, UpNs: 60_000}},
			Reselect: true,
		},
		{
			SwitchFaults: []SwitchFault{{Switch: mid, DownNs: 40_000}},
			Reselect:     true,
			InBandSM:     &InBandSMConfig{},
		},
	}
	cfgOf := func(sn *ib.Subnet, plan *FaultPlan) Config {
		return Config{
			Subnet:  sn,
			Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.3,
			WarmupNs: 20_000, MeasureNs: 80_000,
			FaultPlan:    plan,
			VerifyEpochs: true,
			Seed:         13,
		}
	}
	before := make([][]uint8, len(shared.LFTs))
	for sw, lft := range shared.LFTs {
		before[sw] = lft.Entries()
	}
	want := make([]Result, len(plans))
	for i, plan := range plans {
		if w := plan.writableSwitches(tr); !slices.Contains(w, false) {
			t.Fatalf("plan %d dirties every switch: no table is shared", i)
		}
		res, err := Run(cfgOf(mustSubnet(t, m, n, core.NewMLID()), plan))
		if err != nil {
			t.Fatal(err)
		}
		if res.LFTUpdates == 0 {
			t.Fatalf("plan %d applied no table update: the scenario exercises nothing", i)
		}
		want[i] = res
	}

	got := make([]Result, 2*len(plans))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = Run(cfgOf(shared, plans[g%len(plans)]))
		}()
	}
	wg.Wait()
	for g, res := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(res, want[g%len(plans)]) {
			t.Errorf("plan %d on the shared subnet differs from a run on a private one:\n shared:  %s\n private: %s",
				g%len(plans), fingerprint(res), fingerprint(want[g%len(plans)]))
		}
	}
	for sw, lft := range shared.LFTs {
		if !slices.Equal(lft.Entries(), before[sw]) {
			t.Errorf("switch %d: the configured subnet's table changed during the runs", sw)
		}
	}
}
