package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// endToEnd are the metrics a user regenerating the sweeps sees, all lower is
// better. bound is the share of the baseline median by which a metric may
// worsen before compare calls it regressed; 0 means any increase. README.md
// ("Bounds") gives the measured spreads behind each value.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"setup_s", "s", 0.25},
	{"wall_s", "s", 0.25},
	{"cpu_s", "s", 0.25},
	{"alloc_mb", "MiB", 0.15},
	{"peak_rss_mb", "MiB", 0.25},
	{"failed_frac", "ratio", 0},
}

// perLayer are the traced pass's metrics, in BENCHMARK.json order. They carry
// no bound; better says which way an optimisation should move them.
var perLayer = []struct{ name, unit, better string }{
	{"topology.new_s", "s", "lower"},
	{"ib.configure_s", "s", "lower"},
	{"ib.configure_calls", "count", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.runs", "count", "lower"},
	{"sim.run_p50_s", "s", "lower"},
	{"sim.run_max_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.delivered", "count", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.events_per_delivered", "ratio", "lower"},
	{"transport.retransmits", "count", "lower"},
	{"transport.acks", "count", "lower"},
	{"transport.ctrl_bytes", "B", "lower"},
	{"transport.failed", "count", "lower"},
	{"transport.goodput_ratio", "ratio", "higher"},
	{"sm.traps_sent", "count", "lower"},
	{"sm.trap_delivery_ratio", "ratio", "higher"},
	{"sm.smps_sent", "count", "lower"},
	{"sm.smp_retries", "count", "lower"},
	{"sm.sweeps", "count", "lower"},
	{"sm.failovers", "count", "lower"},
	{"faults.lft_updates", "count", "lower"},
	{"faults.dropped", "count", "lower"},
	{"faults.reroutes", "count", "lower"},
	{"sim.verified_epochs", "count", "lower"},
	{"core.repair_subnet_s", "s", "lower"},
	{"core.repair_subnet_calls", "count", "lower"},
	{"core.select_dlid_calls", "count", "lower"},
	{"core.select_dlid_ns", "ns", "lower"},
	{"verify.run_s", "s", "lower"},
	{"verify.self_s", "s", "lower"},
	{"verify.calls", "count", "lower"},
	{"verify.warnings", "count", "lower"},
	{"experiment.points", "count", "lower"},
	{"experiment.parallelism", "ratio", "higher"},
	{"experiment.straggler_s", "s", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"prof.sim.engine_pct", "%", "lower"},
	{"prof.sim.dataplane_pct", "%", "lower"},
	{"prof.sim.sharded_pct", "%", "lower"},
	{"prof.sim.transport_pct", "%", "lower"},
	{"prof.sim.selector_pct", "%", "lower"},
	{"prof.sim.faults_pct", "%", "lower"},
	{"prof.sim.insm_pct", "%", "lower"},
	{"prof.core_pct", "%", "lower"},
	{"prof.verify_pct", "%", "lower"},
	{"prof.topology_pct", "%", "lower"},
	{"prof.ib_pct", "%", "lower"},
	{"prof.stats_pct", "%", "lower"},
	{"prof.experiment_pct", "%", "lower"},
	{"prof.runtime.gc_pct", "%", "lower"},
	{"prof.runtime.other_pct", "%", "lower"},
	{"prof.unmapped_pct", "%", "lower"},
}

// summary is one end-to-end metric of a run: every sample, and the median,
// quartiles and count the spread rule is stated in.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func summarize(unit string, samples []float64) summary {
	q1, q3 := quartiles(samples)
	return summary{Unit: unit, Samples: samples, Median: median(samples), Q1: q1, Q3: q3, N: len(samples)}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// record is one invocation's result.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"digest"`
	Seconds   float64            `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Host      host               `json:"host"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
}

// setFile is a set of runs, one record per workload.
type setFile struct {
	Records []record `json:"records"`
}

func readSet(path string) (setFile, error) {
	var s setFile
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("bench: %s: %w", path, err)
	}
	return s, nil
}

// addToSet adds rec to the set in path, creating the file if it is absent
// and replacing an earlier record of the same workload.
func addToSet(path string, rec record) error {
	s, err := readSet(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	replaced := false
	for i := range s.Records {
		if s.Records[i].Workload == rec.Workload {
			s.Records[i], replaced = rec, true
		}
	}
	if !replaced {
		s.Records = append(s.Records, rec)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
