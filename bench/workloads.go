package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mlid/internal/core"
	"mlid/internal/experiment"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/stats"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// A workload is one sweep at a stated input size. Every workload is a closed
// loop with one client: the next repetition starts when the previous one
// ends, and the unit of work is one full sweep.
type workload struct {
	name string
	// defaultSeed is the seed the workload's spec commits; the committed
	// digest in testdata/digests.json is for this seed at full size.
	defaultSeed int64
	// build makes the inputs for a seed; mini shrinks them to the smoke
	// test's size.
	build func(seed int64, mini bool) *job
}

// setupPair is one (tree, scheme) the workload configures.
type setupPair struct {
	m, n   int
	scheme core.Scheme
}

// job is one workload instantiated for a seed.
type job struct {
	// seed is the seed the inputs were made from (degraded_8x3 may advance
	// the requested one, see resolveDegradedSeed).
	seed  int64
	pairs []setupPair
	// subnets holds the configured pairs after the timed set-up, in pairs
	// order; long_run_32x2 simulates on subnets[0].
	subnets []*ib.Subnet
	// run calls the public entry point a user calls.
	run func(j *job) (output, error)
	// traced replays the same sweep points through the layers' public
	// functions, inside spans.
	traced func(j *job, t *tracer, parent int64) (output, error)
}

// output is what one sweep produced: text is what the workload renders (its
// SHA-256 is the digest), data the rows or curve points behind it, compared
// bit for bit between the timed repetitions and the traced pass.
type output struct {
	text string
	data any
}

func (o output) digest() string {
	sum := sha256.Sum256([]byte(o.text))
	return hex.EncodeToString(sum[:])
}

// same reports whether two outputs agree bit for bit.
func (o output) same(p output) bool {
	return o.text == p.text && reflect.DeepEqual(o.data, p.data)
}

// setup builds every (tree, scheme) pair once: topology.New plus
// ib.SubnetManager.Configure.
func (j *job) setup() error {
	subnets := make([]*ib.Subnet, len(j.pairs))
	for i, p := range j.pairs {
		tr, err := topology.New(p.m, p.n)
		if err != nil {
			return err
		}
		sn, err := (&ib.SubnetManager{Tree: tr, Engine: p.scheme}).Configure()
		if err != nil {
			return fmt.Errorf("bench: configure %s on FT(%d,%d): %w", p.scheme.Name(), p.m, p.n, err)
		}
		subnets[i] = sn
	}
	j.subnets = subnets
	return nil
}

// singleEngine pins every simulation to the single-engine path. At the
// automatic shard default, on a 2-CPU host, every workload ran 1.2–4× slower
// and its times spread 8–18% between runs, wider than any bound the
// benchmark can hold. Results are bit-identical for every shard count
// (README.md, "Defects").
const singleEngine = 1

var workloads = []workload{
	{name: "figs_quick", defaultSeed: 1001, build: figsQuick},
	{name: "long_run_32x2", defaultSeed: 1, build: longRun},
	{name: "sm_campaign_8x3", defaultSeed: 4099, build: smCampaign},
	{name: "degraded_8x3", defaultSeed: 1789, build: degraded},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// traceConfigure, traceTree and traceSimRun each wrap one call into a layer
// in a span.
func traceConfigure(t *tracer, parent int64, tr *topology.Tree, scheme core.Scheme) (*ib.Subnet, error) {
	var sn *ib.Subnet
	err := t.do("ib.configure", parent, func(int64) error {
		var err error
		sn, err = (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
		return err
	})
	return sn, err
}

func traceTree(t *tracer, parent int64, nw experiment.Network) (*topology.Tree, error) {
	var tr *topology.Tree
	err := t.do("topology.new", parent, func(int64) error {
		var err error
		tr, err = topology.New(nw.M, nw.N)
		return err
	})
	return tr, err
}

func traceSimRun(t *tracer, parent int64, cfg sim.Config) (sim.Result, error) {
	var res sim.Result
	err := t.do("sim.run", parent, func(int64) error {
		var err error
		res, err = sim.Run(cfg)
		return err
	})
	return res, err
}

// figsQuick is the paper's whole evaluation at ibsweep -fig all -quick size:
// F1–F8, 144 sim.Run points. Figure i runs at seed+i, so the default seed
// reproduces every spec's committed seed.
func figsQuick(seed int64, mini bool) *job {
	specs := experiment.QuickFigures()
	for i := range specs {
		specs[i].Seed = seed + int64(i)
		specs[i].Shards = singleEngine
		if mini {
			specs[i].Network = experiment.Network{M: 4, N: 2}
			specs[i].Loads = []float64{0.1, 0.8}
			specs[i].VLs = []int{1, 2}
			specs[i].WarmupNs, specs[i].MeasureNs = 2_000, 10_000
		}
	}
	j := &job{seed: seed}
	seen := map[experiment.Network]bool{}
	for _, f := range specs {
		if !seen[f.Network] {
			seen[f.Network] = true
			j.pairs = append(j.pairs, setupPair{f.Network.M, f.Network.N, core.NewSLID()}, setupPair{f.Network.M, f.Network.N, core.NewMLID()})
		}
	}
	j.run = func(*job) (output, error) {
		var figs [][]stats.Curve
		var b strings.Builder
		for _, f := range specs {
			fig, err := f.Run()
			if err != nil {
				return output{}, err
			}
			figs = append(figs, fig.Curves)
			b.WriteString(fig.CSV())
		}
		return output{text: b.String(), data: figs}, nil
	}
	j.traced = func(_ *job, t *tracer, parent int64) (output, error) {
		var figs [][]stats.Curve
		var b strings.Builder
		for _, f := range specs {
			var curves []stats.Curve
			err := t.do("experiment.figure", parent, func(id int64) error {
				var err error
				curves, err = replayFigure(t, id, f)
				return err
			})
			if err != nil {
				return output{}, err
			}
			figs = append(figs, curves)
			b.WriteString(stats.CSV(curves))
		}
		return output{text: b.String(), data: figs}, nil
	}
	return j
}

// replayFigure is FigureSpec.Run through the layers' public functions: the
// same jobs in the same order, seeds and shard count, on a GOMAXPROCS-wide
// point pool.
func replayFigure(t *tracer, parent int64, f experiment.FigureSpec) ([]stats.Curve, error) {
	if f.Replicas > 1 {
		return nil, fmt.Errorf("bench: replay covers single-replica figures, %s has %d", f.ID, f.Replicas)
	}
	tree, err := traceTree(t, parent, f.Network)
	if err != nil {
		return nil, err
	}
	var pat traffic.Pattern
	switch f.Pattern {
	case "uniform":
		pat = traffic.Uniform{Nodes: tree.Nodes()}
	case "centric":
		pat = traffic.Centric{Nodes: tree.Nodes(), Hotspot: 0, Fraction: 0.5}
	default:
		return nil, fmt.Errorf("bench: unknown pattern %q", f.Pattern)
	}
	shards := experiment.ResolveShards(tree, f.Shards)
	type point struct {
		curve, index int
		cfg          sim.Config
	}
	var points []point
	var curves []stats.Curve
	for _, scheme := range []core.Scheme{core.NewSLID(), core.NewMLID()} {
		sn, err := traceConfigure(t, parent, tree, scheme)
		if err != nil {
			return nil, err
		}
		for _, vls := range f.VLs {
			ci := len(curves)
			curves = append(curves, stats.Curve{
				Label:  fmt.Sprintf("%s %dVL", scheme.Name(), vls),
				Points: make([]stats.Point, len(f.Loads)),
			})
			for pi, load := range f.Loads {
				points = append(points, point{ci, pi, sim.Config{
					Subnet: sn, Pattern: pat, DataVLs: vls, OfferedLoad: load,
					WarmupNs: f.WarmupNs, MeasureNs: f.MeasureNs, Reception: f.Reception,
					Shards: shards, Seed: f.Seed + int64(ci*100_000+pi*100),
				}})
			}
		}
	}
	results := make([]sim.Result, len(points))
	err = t.pool(parent, len(points), runtime.GOMAXPROCS(0), func(i int, span int64) error {
		var err error
		results[i], err = traceSimRun(t, span, points[i].cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		res := results[i]
		t.results = append(t.results, res)
		curves[p.curve].Points[p.index] = stats.Point{
			OfferedLoad: res.OfferedLoad, Accepted: res.Accepted,
			MeanLatencyNs: res.MeanLatencyNs, P99LatencyNs: res.P99LatencyNs,
			Delivered: res.DeliveredWindow, Generated: res.GeneratedWindow,
			Saturated: res.Saturated,
		}
	}
	return curves, nil
}

// longRun is one long FT(32,2) MLID simulation, the same work as
// `ibsim -m 32 -n 2 -scheme MLID -load 0.6 -vls 2 -warmup 50000 -measure
// 1000000 -seed 1`: no point-level parallelism, only the sharded engine.
func longRun(seed int64, mini bool) *job {
	m, n, measure := 32, 2, sim.Time(1_000_000)
	if mini {
		m, n, measure = 8, 2, 40_000
	}
	config := func(sn *ib.Subnet) sim.Config {
		return sim.Config{
			Subnet:      sn,
			Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
			DataVLs:     2,
			OfferedLoad: 0.6,
			WarmupNs:    50_000,
			MeasureNs:   measure,
			Shards:      singleEngine,
			Seed:        seed,
		}
	}
	j := &job{seed: seed, pairs: []setupPair{{m, n, core.NewMLID()}}}
	j.run = func(j *job) (output, error) {
		res, err := sim.Run(config(j.subnets[0]))
		if err != nil {
			return output{}, err
		}
		return output{text: scalarLine(res), data: res}, nil
	}
	j.traced = func(_ *job, t *tracer, parent int64) (output, error) {
		tree, err := traceTree(t, parent, experiment.Network{M: m, N: n})
		if err != nil {
			return output{}, err
		}
		sn, err := traceConfigure(t, parent, tree, core.NewMLID())
		if err != nil {
			return output{}, err
		}
		res, err := traceSimRun(t, parent, config(sn))
		if err != nil {
			return output{}, err
		}
		t.results = append(t.results, res)
		return output{text: scalarLine(res), data: res}, nil
	}
	return j
}

// scalarLine renders every scalar field of a Result as name=value, floats
// in their shortest exact form, in declaration order.
func scalarLine(res sim.Result) string {
	v := reflect.ValueOf(res)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var s string
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			s = strconv.FormatInt(f.Int(), 10)
		case reflect.Float32, reflect.Float64:
			s = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Bool:
			s = strconv.FormatBool(f.Bool())
		default:
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", v.Type().Field(i).Name, s)
	}
	b.WriteByte('\n')
	return b.String()
}

// smCampaign is the in-band SM study: oracle vs in-band SM at trap loss
// {0, .5, 1}, for SLID, MLID and MLID+adaptive, with transport on, a link
// kill and a master-SM outage that forces failover — 12 points.
func smCampaign(seed int64, mini bool) *job {
	spec := experiment.SMStudySpec()
	if mini {
		spec = experiment.QuickSMSpec()
	}
	spec.Seed = seed
	spec.Shards = singleEngine
	j := &job{seed: seed, pairs: []setupPair{
		{spec.Network.M, spec.Network.N, core.NewSLID()},
		{spec.Network.M, spec.Network.N, core.NewMLID()},
	}}
	j.run = func(*job) (output, error) {
		rows, err := experiment.SMStudy(spec)
		if err != nil {
			return output{}, err
		}
		return output{text: experiment.SMCSV(rows), data: rows}, nil
	}
	j.traced = func(_ *job, t *tracer, parent int64) (output, error) {
		var rows []experiment.SMRow
		err := t.do("experiment.study", parent, func(id int64) error {
			var err error
			rows, err = replaySM(t, id, spec)
			return err
		})
		if err != nil {
			return output{}, err
		}
		return output{text: experiment.SMCSV(rows), data: rows}, nil
	}
	return j
}

// replaySM is experiment.SMStudy through the layers' public functions.
func replaySM(t *tracer, parent int64, spec experiment.SMSpec) ([]experiment.SMRow, error) {
	tree, err := traceTree(t, parent, spec.Network)
	if err != nil {
		return nil, err
	}
	victimLeaf, _ := tree.NodeAttachment(topology.NodeID(tree.Nodes() / 2))
	masterLeaf, _ := tree.NodeAttachment(0)
	shards := experiment.ResolveShards(tree, spec.Shards)
	type mode struct {
		name string
		prob float64
	}
	modes := []mode{{"oracle", 0}}
	for _, p := range spec.TrapLossProbs {
		modes = append(modes, mode{"inband", p})
	}
	schemes := []struct {
		label  string
		scheme core.Scheme
		sel    sim.Selector
	}{
		{"SLID", core.NewSLID(), nil},
		{"MLID", core.NewMLID(), nil},
		{"MLID+adaptive", core.NewMLID(), sim.SelectAdaptive()},
	}
	pristine := make([]*ib.Subnet, len(schemes))
	for i, sc := range schemes {
		if pristine[i], err = traceConfigure(t, parent, tree, sc.scheme); err != nil {
			return nil, err
		}
	}
	n := len(schemes) * len(modes)
	rows := make([]experiment.SMRow, n)
	results := make([]sim.Result, n)
	err = t.pool(parent, n, runtime.GOMAXPROCS(0), func(pt int, span int64) error {
		sc := schemes[pt/len(modes)]
		mi := pt % len(modes)
		md := modes[mi]
		plan := &sim.FaultPlan{
			Faults:       []sim.LinkFault{{Switch: int32(victimLeaf), Port: tree.DownPorts(victimLeaf), DownNs: spec.LinkFaultNs}},
			SwitchFaults: []sim.SwitchFault{{Switch: int32(masterLeaf), DownNs: spec.SMDownNs, UpNs: spec.SMUpNs}},
			Reselect:     true,
		}
		if md.name == "inband" {
			plan.InBandSM = &sim.InBandSMConfig{SweepIntervalNs: spec.SweepIntervalNs, TrapLossProb: md.prob}
		}
		res, err := traceSimRun(t, span, sim.Config{
			Subnet:           pristine[pt/len(modes)],
			Pattern:          traffic.Uniform{Nodes: tree.Nodes()},
			DataVLs:          spec.DataVLs,
			OfferedLoad:      spec.OfferedLoad,
			WarmupNs:         spec.WarmupNs,
			MeasureNs:        spec.MeasureNs,
			SeriesIntervalNs: spec.SeriesIntervalNs,
			PathSelect:       sc.sel,
			FaultPlan:        plan,
			Transport:        &sim.TransportConfig{BaseTimeoutNs: 5_000, MaxRetries: 3, MaxTimeoutNs: 20_000},
			VerifyEpochs:     spec.VerifyEpochs,
			Shards:           shards,
			Seed:             spec.Seed + int64(mi),
		})
		if err != nil {
			return err
		}
		results[pt] = res
		postFrom := spec.SMUpNs + 2*spec.SweepIntervalNs
		end := spec.WarmupNs + spec.MeasureNs
		rows[pt] = experiment.SMRow{
			Scheme: sc.label, Mode: md.name, TrapLossProb: md.prob,
			TrapsSent: res.TrapsSent, TrapsLost: res.TrapsLost, TrapsDelivered: res.TrapsDelivered,
			SMSweeps: res.SMSweeps, SweepDetections: res.SweepDetections,
			SMPsSent: res.SMPsSent, SMPRetries: res.SMPRetries, SMPFailed: res.SMPFailed,
			Failovers: res.Failovers, PartitionEvents: res.PartitionEvents,
			UnreachableDegraded: res.UnreachableDegraded, Failed: res.Failed,
			LFTUpdates: res.LFTUpdates, RecoveryNs: res.RecoveryNs,
			Series:         res.Series,
			PreAccepted:    meanAccepted(res.Series, spec.WarmupNs, spec.LinkFaultNs),
			OutageAccepted: meanAccepted(res.Series, spec.SMDownNs, spec.SMUpNs),
			PostAccepted:   meanAccepted(res.Series, postFrom, end),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.results = append(t.results, results...)
	return rows, nil
}

// meanAccepted averages the Accepted rate of the series bins starting in
// [from, to), as the SM study's windowed rates do.
func meanAccepted(series []sim.SeriesPoint, from, to sim.Time) float64 {
	var sum float64
	var n int
	for _, sp := range series {
		if sp.StartNs >= from && sp.StartNs < to {
			sum += sp.Accepted
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// degraded is the degraded-fabric study at SwitchOuts {1, 2}: per scenario
// and scheme, clone, full-scan core.RepairSubnet, verify.Run with a
// core.SelectDLID callback over all-to-all, then the simulated outage — 16
// points. The static ranking must agree with the simulated one.
func degraded(seed int64, mini bool) *job {
	spec := experiment.DegradedStudySpec()
	// {1, 2, 4} fails validation: at 4 switches out the sample can hold two
	// adjacent spines, whose shared link the FaultPlan then fails twice.
	spec.SwitchOuts = []int{1, 2}
	if mini {
		spec = experiment.QuickDegradedSpec()
		spec.MeasureNs = 30_000
	}
	spec.Seed = resolveDegradedSeed(spec, seed)
	spec.Shards = singleEngine
	j := &job{seed: spec.Seed, pairs: []setupPair{
		{spec.Network.M, spec.Network.N, core.NewSLID()},
		{spec.Network.M, spec.Network.N, core.NewMLID()},
	}}
	j.run = func(*job) (output, error) {
		rows, err := experiment.DegradedStudy(spec)
		if err != nil {
			return output{}, err
		}
		if err := experiment.DegradedOrderingConsistent(rows); err != nil {
			return output{}, err
		}
		return output{text: experiment.DegradedCSV(rows), data: rows}, nil
	}
	j.traced = func(_ *job, t *tracer, parent int64) (output, error) {
		var rows []experiment.DegradedRow
		err := t.do("experiment.study", parent, func(id int64) error {
			var err error
			rows, err = replayDegraded(t, id, spec)
			return err
		})
		if err != nil {
			return output{}, err
		}
		return output{text: experiment.DegradedCSV(rows), data: rows}, nil
	}
	return j
}

// resolveDegradedSeed returns the first seed from seed on whose switch-out
// draws hold no two adjacent switches. An adjacent pair fails their shared
// link twice, which FaultPlan validation rejects, so such a seed is not a
// workload input; advancing keeps every seed runnable.
func resolveDegradedSeed(spec experiment.DegradedSpec, seed int64) int64 {
	tree, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return seed
	}
	for s := seed; ; s++ {
		ok := true
		for si, k := range spec.SwitchOuts {
			sw, err := switchSample(tree, k, rand.New(rand.NewSource(s*9311+int64(si))))
			if err != nil || adjacent(tree, sw) {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
}

func adjacent(tree *topology.Tree, switches []int32) bool {
	out := map[int32]bool{}
	for _, sw := range switches {
		out[sw] = true
	}
	for _, sw := range switches {
		for port := 0; port < tree.M(); port++ {
			if ref := tree.SwitchNeighbor(topology.SwitchID(sw), port); ref.Kind == topology.KindSwitch && out[int32(ref.Switch)] {
				return true
			}
		}
	}
	return false
}

// linkSample draws the failed inter-switch links of one rate exactly as the
// degraded study does: a seeded shuffle over the canonical link list.
func linkSample(tree *topology.Tree, rate float64, rng *rand.Rand) [][2]int32 {
	var candidates [][2]int32
	for sw := 0; sw < tree.Switches(); sw++ {
		for port := 0; port < tree.M(); port++ {
			ref := tree.SwitchNeighbor(topology.SwitchID(sw), port)
			if ref.Kind != topology.KindSwitch || int32(ref.Switch) < int32(sw) {
				continue
			}
			candidates = append(candidates, [2]int32{int32(sw), int32(port)})
		}
	}
	k := int(rate*float64(len(candidates)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	out := make([][2]int32, 0, k)
	for _, i := range rng.Perm(len(candidates))[:k] {
		out = append(out, candidates[i])
	}
	return out
}

// switchSample draws k distinct non-leaf switches exactly as the degraded
// study does.
func switchSample(tree *topology.Tree, k int, rng *rand.Rand) ([]int32, error) {
	var candidates []int32
	for sw := 0; sw < tree.Switches(); sw++ {
		if !tree.IsLeaf(topology.SwitchID(sw)) {
			candidates = append(candidates, int32(sw))
		}
	}
	if k < 1 || k >= len(candidates) {
		return nil, fmt.Errorf("bench: switch-out count %d outside [1, %d)", k, len(candidates))
	}
	out := make([]int32, 0, k)
	for _, i := range rng.Perm(len(candidates))[:k] {
		out = append(out, candidates[i])
	}
	return out, nil
}

// replayDegraded is experiment.DegradedStudy through the layers' public
// functions.
func replayDegraded(t *tracer, parent int64, spec experiment.DegradedSpec) ([]experiment.DegradedRow, error) {
	tree, err := traceTree(t, parent, spec.Network)
	if err != nil {
		return nil, err
	}
	shards := experiment.ResolveShards(tree, spec.Shards)
	type scenario struct {
		axis        string
		rate        float64
		switchesOut int
		links       [][2]int32
		plan        *sim.FaultPlan
		seed        int64
	}
	var scenarios []scenario
	for ri, rate := range spec.Rates {
		sc := scenario{
			axis: "links", rate: rate,
			links: linkSample(tree, rate, rand.New(rand.NewSource(spec.Seed*6151+int64(ri)))),
			plan:  &sim.FaultPlan{Reselect: true},
			seed:  spec.Seed + int64(ri),
		}
		for _, l := range sc.links {
			sc.plan.Faults = append(sc.plan.Faults, sim.LinkFault{Switch: l[0], Port: int(l[1]), DownNs: spec.FaultNs})
		}
		scenarios = append(scenarios, sc)
	}
	for si, k := range spec.SwitchOuts {
		switches, err := switchSample(tree, k, rand.New(rand.NewSource(spec.Seed*9311+int64(si))))
		if err != nil {
			return nil, err
		}
		sc := scenario{axis: "switches", switchesOut: k, plan: &sim.FaultPlan{Reselect: true}, seed: spec.Seed + int64(1000+si)}
		for _, sw := range switches {
			sc.plan.SwitchFaults = append(sc.plan.SwitchFaults, sim.SwitchFault{Switch: sw, DownNs: spec.FaultNs})
			for port := 0; port < tree.M(); port++ {
				if ref := tree.SwitchNeighbor(topology.SwitchID(sw), port); ref.Kind != topology.KindNone {
					sc.links = append(sc.links, [2]int32{sw, int32(port)})
				}
			}
		}
		scenarios = append(scenarios, sc)
	}
	schemes := []core.Scheme{core.NewSLID(), core.NewMLID()}
	pristine := make([]*ib.Subnet, len(schemes))
	for i, scheme := range schemes {
		if pristine[i], err = traceConfigure(t, parent, tree, scheme); err != nil {
			return nil, err
		}
	}
	verifyWorkers := runtime.GOMAXPROCS(0)
	if verifyWorkers > tree.Switches() {
		verifyWorkers = tree.Switches()
	}
	n := len(scenarios) * len(schemes)
	rows := make([]experiment.DegradedRow, n)
	results := make([]sim.Result, n)
	warnings := make([]int, n)
	err = t.pool(parent, n, runtime.GOMAXPROCS(0), func(pt int, span int64) error {
		sc := scenarios[pt/len(schemes)]
		scheme := schemes[pt%len(schemes)]
		fs := core.NewFaultSet()
		for _, l := range sc.links {
			fs.FailLink(tree, topology.SwitchID(l[0]), int(l[1]))
		}
		row := experiment.DegradedRow{
			Scheme: scheme.Name(), Axis: sc.axis, Rate: sc.rate, SwitchesOut: sc.switchesOut,
			FailedLinks: len(sc.links),
		}
		src := pristine[pt%len(schemes)]
		sn := &ib.Subnet{Tree: src.Tree, Engine: src.Engine, Endports: src.Endports, LFTs: make([]*ib.LFT, len(src.LFTs))}
		for i, lft := range src.LFTs {
			sn.LFTs[i] = lft.Clone()
		}
		var broken []core.BrokenEntry
		err := t.do("core.repair_subnet", span, func(int64) error {
			var err error
			_, broken, err = core.RepairSubnet(sn, fs)
			return err
		})
		if err != nil {
			return err
		}
		row.BrokenEntries = len(broken)
		in := verify.Input{
			Tree: tree, Endports: sn.Endports, LFTs: sn.LFTs, Engine: scheme, DeadLinks: sc.links,
			SelectDLID: func(src, dst topology.NodeID) (ib.LID, bool) {
				start := time.Now()
				lid, _, ok := core.SelectDLID(tree, scheme, src, dst, fs)
				t.selectNs.Add(int64(time.Since(start)))
				t.selectCalls.Add(1)
				return lid, ok
			},
		}
		var rep *verify.Report
		err = t.do("verify.run", span, func(int64) error {
			var err error
			rep, err = verify.Run(in, verify.Options{VLs: spec.DataVLs, Parallelism: verifyWorkers})
			return err
		})
		if err != nil {
			return err
		}
		if n := rep.Errors(); n > 0 {
			return fmt.Errorf("bench: degraded verify %s: %d error finding(s)", scheme.Name(), n)
		}
		if len(rep.Stats.Quality) == 0 {
			return fmt.Errorf("bench: degraded verify %s: no quality report", scheme.Name())
		}
		warnings[pt] = rep.Warnings()
		row.StaticWarnings = rep.Warnings()
		q := rep.Stats.Quality[0]
		row.StaticMaxLoad = q.MaxLoad
		row.StaticMeanLoad = q.MeanLoad
		row.StaticMeanDilation = q.MeanDilation
		row.StaticUnrouted = q.Unrouted
		if q.Flows > 0 {
			row.StaticServedFrac = float64(q.Flows-q.Unrouted) / float64(q.Flows)
		}
		perFlow := spec.OfferedLoad / float64(tree.Nodes()-1)
		scale := 1.0
		if demand := q.MaxLoad * perFlow; demand > 1 {
			scale = 1 / demand
		}
		row.StaticPredictedAccepted = spec.OfferedLoad * row.StaticServedFrac * scale

		res, err := traceSimRun(t, span, sim.Config{
			Subnet:       src,
			Pattern:      traffic.Uniform{Nodes: tree.Nodes()},
			DataVLs:      spec.DataVLs,
			OfferedLoad:  spec.OfferedLoad,
			WarmupNs:     spec.WarmupNs,
			MeasureNs:    spec.MeasureNs,
			FaultPlan:    sc.plan,
			VerifyEpochs: true,
			Shards:       shards,
			Seed:         sc.seed,
		})
		if err != nil {
			return err
		}
		results[pt] = res
		row.Accepted = res.Accepted
		row.DroppedWindow = res.DroppedWindow
		row.Reroutes = res.Reroutes
		row.MeanLatencyNs = res.MeanLatencyNs
		row.VerifiedEpochs = res.VerifiedEpochs
		rows[pt] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.results = append(t.results, results...)
	for _, w := range warnings {
		t.verifyWarnings += w
	}
	return rows, nil
}
