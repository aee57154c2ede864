package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layerFiles maps source files to layers; the first prefix that matches a
// file's path wins. Paths are as a -trimpath build records them: module path
// and file for this repository's files, the import path and file for the
// standard library's.
var layerFiles = []struct{ prefix, layer string }{
	{"mlid/internal/sim/engine.go", "sim.engine"},
	{"mlid/internal/sim/sharded.go", "sim.sharded"},
	{"mlid/internal/sim/transport.go", "sim.transport"},
	{"mlid/internal/sim/selector.go", "sim.selector"},
	{"mlid/internal/sim/faults.go", "sim.faults"},
	{"mlid/internal/sim/verify.go", "sim.faults"},
	{"mlid/internal/sim/insm.go", "sim.insm"},
	{"mlid/internal/sm/", "sim.insm"},
	{"mlid/internal/sim/", "sim.dataplane"},
	{"mlid/internal/traffic/", "sim.dataplane"},
	{"mlid/internal/core/", "core"},
	{"mlid/internal/verify/", "verify"},
	{"mlid/internal/topology/", "topology"},
	{"mlid/internal/ib/", "ib"},
	{"mlid/internal/stats/", "stats"},
	{"mlid/internal/experiment/", "experiment"},
	{"mlid/bench/", "experiment"},
	{"runtime/mgc", "runtime.gc"},
	{"runtime/mbitmap", "runtime.gc"},
	{"runtime/mbarrier", "runtime.gc"},
	{"runtime/mwbbuf", "runtime.gc"},
	{"runtime/mspanset", "runtime.gc"},
	{"runtime/mcheckmark", "runtime.gc"},
	{"runtime/", "runtime.other"},
	{"internal/runtime/", "runtime.other"},
}

// profLayers are the layers the profile is folded into, in report order.
var profLayers = []string{
	"sim.engine", "sim.dataplane", "sim.sharded", "sim.transport", "sim.selector",
	"sim.faults", "sim.insm", "core", "verify", "topology", "ib", "stats",
	"experiment", "runtime.gc", "runtime.other", "unmapped",
}

func layerOf(file string) string {
	// The benchmark module requires the repository as mlid v0.0.0, so its
	// files carry the version in their first path element.
	if mod, rest, ok := strings.Cut(file, "/"); ok {
		if path, _, versioned := strings.Cut(mod, "@"); versioned {
			file = path + "/" + rest
		}
	}
	for _, e := range layerFiles {
		if strings.HasPrefix(file, e.prefix) {
			return e.layer
		}
	}
	return "unmapped"
}

// profiler samples a CPU profile into a temporary file.
type profiler struct{ f *os.File }

func startProfile() (*profiler, error) {
	f, err := os.CreateTemp("", "bench-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &profiler{f}, nil
}

// stop ends the profile and folds it by layer through `go tool pprof -top
// -files`, returning each layer's share of the flat CPU time in percent.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.f.Name())
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop parses `go tool pprof -top -files` output: after the header line
// "flat flat% sum% cum cum%", each line is a flat time, three more columns
// and a file path.
func foldTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, l := range profLayers {
		shares[l] = 0
	}
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseMillis(fields[0])
		if err != nil {
			return nil, err
		}
		shares[layerOf(strings.Join(fields[5:], " "))] += flat
		total += flat
	}
	if !inTable {
		return nil, fmt.Errorf("bench: no table in pprof output")
	}
	for l := range shares {
		shares[l] = ratio(shares[l], total) * 100
	}
	return shares, nil
}

// parseMillis reads a pprof time such as "1520ms", "1.52s" or "0".
func parseMillis(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-6}, {"us", 1e-3}, {"ms", 1}, {"min", 6e4}, {"hrs", 3.6e6}, {"s", 1e3}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bench: pprof time %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: pprof time %q: %w", s, err)
	}
	return v, nil
}
