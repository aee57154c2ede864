package sim

import (
	"math/rand"
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// epochOracle returns an epoch hook that holds each epoch's incremental
// counts against a full verify.Run of the same input: a clean epoch must
// carry Run's exact warning count and Run must find no error; an unclean
// one must be one where Run finds an error or suppresses a finding past
// the cap. It counts the epochs compared into *epochs.
func epochOracle(t testing.TB, name string, epochs *int) epochHook {
	return func(in verify.Input, opt verify.Options, warnings int, clean bool) {
		*epochs++
		rep, err := verify.Run(in, opt)
		if err != nil {
			t.Fatalf("%s: epoch %d: %v", name, *epochs, err)
		}
		switch {
		case clean && (rep.Errors() != 0 || rep.Warnings() != warnings):
			t.Errorf("%s: epoch %d: incremental check clean with %d warnings; full Run: %d errors, %d warnings",
				name, *epochs, warnings, rep.Errors(), rep.Warnings())
		case !clean && rep.Errors() == 0 && rep.Stats.Suppressed == 0:
			t.Errorf("%s: epoch %d: incremental check unclean; full Run: no error, %d warnings",
				name, *epochs, rep.Warnings())
		}
	}
}

// runOracle runs cfg with epoch verification under epochOracle and returns
// the epochs compared.
func runOracle(t testing.TB, name string, cfg Config) int {
	t.Helper()
	cfg.VerifyEpochs = true
	epochs := 0
	res, err := run(cfg, epochOracle(t, name, &epochs))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if epochs != res.VerifiedEpochs {
		t.Errorf("%s: hook saw %d epochs, the run verified %d", name, epochs, res.VerifiedEpochs)
	}
	return epochs
}

// TestEpochVerifyMatchesFullRun: after every SM epoch of every fault
// golden scenario, under both VL policies, the incremental epoch check
// reports the counts a full verify.Run reports.
func TestEpochVerifyMatchesFullRun(t *testing.T) {
	epochs := 0
	for _, c := range scenarioCases(t) {
		if c.cfg.FaultPlan == nil {
			continue
		}
		for _, vl := range []VLPolicy{VLRoundRobin, VLByDLID} {
			cfg := c.cfg
			cfg.VLSelect = vl
			epochs += runOracle(t, c.name, cfg)
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch verified: the scenarios exercise nothing")
	}
}

// TestEpochVerifyRandomPlans holds the incremental epoch check against the
// full verifier over seeded random fault plans: link and switch faults,
// down and up, on MLID and SLID fabrics, with VLByDLID on and off, under
// the oracle and the in-band SM.
func TestEpochVerifyRandomPlans(t *testing.T) {
	plans := 60
	if testing.Short() {
		plans = 12
	}
	epochs := 0
	for seed := int64(1); seed <= int64(plans); seed++ {
		for _, cfg := range randomEpochCase(t, seed) {
			epochs += runOracle(t, cfg.name, cfg.cfg)
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch verified: the plans exercise nothing")
	}
}

// FuzzEpochVerify holds the incremental epoch check against the full
// verifier over fuzzed fault timelines on small fat-trees, under both
// schemes. Run it longer by hand with
// `go test -run xxx -fuzz FuzzEpochVerify -fuzztime 5m ./internal/sim/`.
func FuzzEpochVerify(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, cfg := range randomEpochCase(t, seed) {
			runOracle(t, cfg.name, cfg.cfg)
		}
	})
}

// randomEpochCase derives one random fault plan from seed, on FT(4,2),
// FT(4,3) or FT(8,2), and returns it configured under both schemes: VL
// policy, VL count, source reselection and the SM model are drawn too. The
// plan's faults land within a 60 µs window of an 80 µs run at low load, so
// outages, revivals and staged table updates interleave.
func randomEpochCase(t testing.TB, seed int64) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shape := [][2]int{{4, 2}, {4, 3}, {8, 2}}[rng.Intn(3)]
	tr := topology.MustNew(shape[0], shape[1])
	const window = 60_000
	plan := &FaultPlan{Reselect: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		plan.InBandSM = &InBandSMConfig{SweepIntervalNs: 10_000}
	}
	for i, k := 0, 1+rng.Intn(5); i < k; i++ {
		down := Time(rng.Int63n(window))
		var up Time
		if rng.Intn(3) > 0 {
			up = down + 1 + Time(rng.Int63n(window/2))
		}
		// A fault the plan cannot take (an overlap on one link) is dropped.
		if rng.Intn(4) == 0 {
			plan.SwitchFaults = append(plan.SwitchFaults, SwitchFault{
				Switch: rng.Int31n(int32(tr.Switches())), DownNs: down, UpNs: up,
			})
			if plan.withDefaults().validate(tr) != nil {
				plan.SwitchFaults = plan.SwitchFaults[:len(plan.SwitchFaults)-1]
			}
			continue
		}
		plan.Faults = append(plan.Faults, LinkFault{
			Switch: rng.Int31n(int32(tr.Switches())), Port: rng.Intn(tr.M()), DownNs: down, UpNs: up,
		})
		if plan.withDefaults().validate(tr) != nil {
			plan.Faults = plan.Faults[:len(plan.Faults)-1]
		}
	}
	vl := VLPolicy(rng.Intn(2))
	vls := 1 + rng.Intn(3)
	var out []struct {
		name string
		cfg  Config
	}
	for _, scheme := range []core.Scheme{core.NewMLID(), core.NewSLID()} {
		sn := mustSubnet(t, shape[0], shape[1], scheme)
		out = append(out, struct {
			name string
			cfg  Config
		}{
			name: scheme.Name() + "/" + tr.String(),
			cfg: Config{
				Subnet: sn, Pattern: traffic.Uniform{Nodes: tr.Nodes()},
				DataVLs: vls, VLSelect: vl, OfferedLoad: 0.2,
				WarmupNs: 5_000, MeasureNs: 75_000,
				FaultPlan: plan, Seed: seed,
			},
		})
	}
	return out
}
