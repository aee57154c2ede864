// Command bench is the repository benchmark: it runs one sweep workload at a
// stated input size, times set-up and repeated full sweeps with tracing off,
// checks every sweep's output against the committed digest and against the
// other repetitions, then replays the same sweep points once through the
// layers' public functions inside spans, with a CPU profile folded by layer.
//
//	bash bench/run.sh --workload figs_quick [--seed N] [--seconds S] [--trace 0|1] [--json set.json] [--spans spans.jsonl]
//	bash bench/run.sh --compare old.json new.json
//
// Every metric is printed as "name value unit"; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics (the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1). The exit code is non-zero when any sweep failed or disagreed.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// committedDigests holds each workload's digest at its default seed and
// full size.
//
//go:embed testdata/digests.json
var committedDigests []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: figs_quick, long_run_32x2, sm_campaign_8x3 or degraded_8x3")
	seed := fl.Int64("seed", 0, "input seed (default: the workload's committed seed)")
	seconds := fl.Float64("seconds", 25, "keep starting repetitions while the next is expected to end within this many seconds (at least one runs)")
	trace := fl.Int("trace", 1, "1 runs the traced per-layer pass after the timed repetitions and reports the per-layer metrics last; 0 skips it and reports the end-to-end metrics last")
	jsonPath := fl.String("json", "", "add this run's record to the set file at this path")
	spansPath := fl.String("spans", "", "write the traced pass's spans to this file as JSON lines")
	compare := fl.Bool("compare", false, "compare two set files given as arguments: old.json new.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fl.Args(), stdout, stderr)
	}
	if fl.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want flags only, and --trace 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	s := w.defaultSeed
	fl.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			s = *seed
		}
	})
	res, err := measure(w, s, *seconds, *trace == 1, false, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rec := res.rec
	if *jsonPath != "" {
		if err := addToSet(*jsonPath, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if *spansPath != "" && res.tracer != nil {
		if err := res.tracer.writeSpans(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if err := report(stdout, rec, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func runCompare(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two set files: old.json new.json")
		return 2
	}
	old, err := readSet(files[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	new, err := readSet(files[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareSets(stdout, old, new) > 0 {
		return 1
	}
	return 0
}

// measured is one invocation's outcome: the record, plus the last timed
// sweep's output and the tracer for callers that inspect them.
type measured struct {
	rec    record
	out    output
	traced *output
	tracer *tracer
}

// Set-up runs in batches, one before every repetition: each batch repeats it
// at least setupMinReps times and until setupMinTime has been spent, up to
// setupMaxReps. Each batch's median repeat is one setup_s sample, and
// setup_s is the median sample, so a few milliseconds of set-up read
// steadily even when the host slows for a second or two.
const (
	setupMinReps = 3
	setupMaxReps = 50
	setupMinTime = 250 * time.Millisecond
)

// measure runs one workload: timed set-up, timed repetitions with tracing
// off for about seconds, then, when traced, the traced pass.
func measure(w workload, seed int64, seconds float64, traced, mini bool, log io.Writer) (*measured, error) {
	j := w.build(seed, mini)
	want := ""
	if !mini && seed == w.defaultSeed {
		var digests map[string]string
		if err := json.Unmarshal(committedDigests, &digests); err != nil {
			return nil, fmt.Errorf("bench: testdata/digests.json: %w", err)
		}
		want = digests[w.name]
	}

	var setups []float64
	setupBatch := func() error {
		var spent time.Duration
		var batch []float64
		for r := 0; r < setupMaxReps && (r < setupMinReps || spent < setupMinTime); r++ {
			runtime.GC()
			t0 := time.Now()
			if err := j.setup(); err != nil {
				return err
			}
			d := time.Since(t0)
			spent += d
			batch = append(batch, d.Seconds())
		}
		setups = append(setups, median(batch))
		return nil
	}

	var walls, cpus, allocs []float64
	var first *output
	var last output
	attempted, failed := 0, 0
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for {
		if err := setupBatch(); err != nil {
			return nil, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		t0 := time.Now()
		out, err := j.run(j)
		wall := time.Since(t0)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		attempted++
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (c1 - c0).Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(log, "bench: %s repetition %d: %v\n", w.name, attempted, err)
		case want != "" && out.digest() != want:
			failed++
			fmt.Fprintf(log, "bench: %s repetition %d: digest %s, committed %s\n", w.name, attempted, out.digest(), want)
		case first != nil && !out.same(*first):
			failed++
			fmt.Fprintf(log, "bench: %s repetition %d disagrees with repetition 1\n", w.name, attempted)
		}
		if err == nil {
			last = out
			if first == nil {
				first = &out
			}
		}
		if time.Since(start)+wall > budget {
			break
		}
	}
	peakRSS := peakRSSMiB()

	rec := record{
		Workload: w.name, Seed: j.seed, Digest: last.digest(), Seconds: seconds,
		Host: hostInfo(),
		EndToEnd: map[string]summary{
			"setup_s":     summarize("s", setups),
			"wall_s":      summarize("s", walls),
			"cpu_s":       summarize("s", cpus),
			"alloc_mb":    summarize("MiB", allocs),
			"peak_rss_mb": summarize("MiB", []float64{peakRSS}),
		},
	}
	res := &measured{out: last}
	if traced {
		attempted++
		t, out, err := tracedPass(j)
		if err != nil {
			return nil, err
		}
		layers, err := t.layerMetrics(median(walls))
		if err != nil {
			return nil, err
		}
		if first == nil || !out.same(last) {
			failed++
			fmt.Fprintf(log, "bench: %s traced pass does not reproduce the timed repetitions\n", w.name)
		}
		rec.PerLayer = map[string]value{}
		for _, m := range perLayer {
			rec.PerLayer[m.name] = value{layers[m.name], m.unit}
		}
		res.traced, res.tracer = &out, t
	}
	rec.Attempted, rec.Failed = attempted, failed
	rec.EndToEnd["failed_frac"] = summarize("ratio", []float64{float64(failed) / float64(attempted)})
	res.rec = rec
	return res, nil
}

// tracedPass replays the workload inside spans, with a CPU profile folded by
// layer into the prof.<layer>_pct metrics.
func tracedPass(j *job) (*tracer, output, error) {
	runtime.GC()
	prof, err := startProfile()
	if err != nil {
		return nil, output{}, err
	}
	t := newTracer()
	var out output
	runErr := t.do("pass", 0, func(id int64) error {
		var err error
		out, err = j.traced(j, t, id)
		return err
	})
	shares, err := prof.stop()
	if runErr != nil {
		return nil, output{}, runErr
	}
	if err != nil {
		return nil, output{}, err
	}
	t.profShares = shares
	return t, out, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report prints every metric as "name value unit", then the result line.
func report(w io.Writer, rec record, traced bool) error {
	fmt.Fprintf(w, "# %s seed %d digest %s: %d attempted, %d failed; %d CPUs, GOMAXPROCS %d, %s, %s\n",
		rec.Workload, rec.Seed, rec.Digest, rec.Attempted, rec.Failed,
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.CPU, rec.Host.Go)
	for _, m := range endToEnd {
		s := rec.EndToEnd[m.name]
		fmt.Fprintf(w, "%s %.6g %s q1=%.6g q3=%.6g n=%d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, m := range perLayer {
		if v, ok := rec.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "%s %.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]value{}}
	if traced {
		line.Metrics = rec.PerLayer
	} else {
		for _, m := range endToEnd {
			if m.name != "failed_frac" { // zero whenever correct; carried by failed/attempted
				s := rec.EndToEnd[m.name]
				line.Metrics[m.name] = value{s.Median, s.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
