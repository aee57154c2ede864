// Command benchjson converts `go test -bench` text output into a stable JSON
// document, so benchmark results can be committed (BENCH_<n>.json) and diffed
// across PRs instead of living in commit messages. It reads the benchmark
// output on stdin and writes JSON to stdout:
//
//	go test -run xxx -bench 'BenchmarkFig' -benchmem -benchtime 1x . \
//	    | go run ./cmd/benchjson > BENCH_5.json
//
// Each "Benchmark..." result line becomes one record with the standard
// ns/op, B/op and allocs/op measurements; any custom testing.B metrics
// (mlid_over_slid, peak bandwidths, ...) land in the metrics map. Non-result
// lines (goos/goarch headers, PASS, ok) are skipped. The command exits
// non-zero when no benchmark line was found — in CI that turns a silently
// skipped bench run into a failure.
//
// To keep committed files comparable across machines, each record also
// carries the parallelism that produced it: gomaxprocs is decoded from the
// benchmark name's standard "-N" suffix (absent means 1), and the host's
// "cpu:" header line is preserved verbatim.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line. GOMAXPROCS is the procs count go test
// encodes as the name's trailing "-N" (1 when absent).
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// document is the emitted file; Goos/Goarch/CPU come from the bench header so
// a committed file records what machine class produced it.
type document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Package string   `json:"package,omitempty"`
	Results []result `json:"results"`
}

func main() {
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}

func parse(sc *bufio.Scanner) (document, error) {
	var doc document
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		r, err := parseResult(line)
		if err != nil {
			return document{}, err
		}
		doc.Results = append(doc.Results, r)
	}
	return doc, sc.Err()
}

// parseResult decodes one result line: a name, an iteration count, then
// (value, unit) pairs.
func parseResult(line string) (result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, fmt.Errorf("iteration count in %q: %v", line, err)
	}
	r := result{
		Name:       fields[0],
		Iterations: iters,
		GOMAXPROCS: procsOf(fields[0]),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, fmt.Errorf("measurement %q in %q: %v", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		case "MB/s":
			addMetric(&r, "mb_per_s", val)
		default:
			addMetric(&r, unit, val)
		}
	}
	return r, nil
}

// procsOf decodes go test's GOMAXPROCS suffix ("BenchmarkX/case-8" -> 8);
// the suffix is omitted when GOMAXPROCS was 1.
func procsOf(name string) int {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func addMetric(r *result, name string, val float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = val
}
