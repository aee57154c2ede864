package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput runs each pinned simulation in-process and holds its
// stdout against its file in testdata: smoke.txt carries the latency
// histogram, the busiest ports and a packet trace; hist-under.txt a
// histogram with a <256ns row.
func TestPinnedOutput(t *testing.T) {
	for _, tc := range []struct{ file, args string }{
		{"smoke.txt", "-m 4 -n 2 -hist -ports 3 -trace 1 -warmup 5000 -measure 20000"},
		{"hist-under.txt", "-m 4 -n 2 -packet 64 -load 0.2 -hist -warmup 5000 -measure 20000"},
	} {
		var stdout, stderr bytes.Buffer
		args := strings.Fields(tc.args)
		if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
			t.Fatalf("ibsim %s: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		golden.Check(t, filepath.Join("testdata", tc.file), stdout.Bytes())
	}
}

// TestExitStatus pins the failure paths: a usage error exits 2, a run error
// exits 1 with its message, and LID-space exhaustion adds the hint.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-nosuchflag", "flag provided but not defined: -nosuchflag", 2},
		{"-switching wormhole", "ibsim: unknown switching mode \"wormhole\"\n", 1},
		{"-m 16 -n 3", "ibsim: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space\n", 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ibsim %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestHistogramRender pins writeHistogram's layout on the cases the pinned
// runs do not reach: no samples, only sub-256 ns samples, an empty octave
// between two full ones, and a <256ns row that sets the bar scale.
func TestHistogramRender(t *testing.T) {
	bar := func(n int) string { return strings.Repeat("#", n) }
	for _, tc := range []struct {
		octaves []int64
		want    string
	}{
		{nil, "(no samples)\n"},
		{[]int64{2, 0, 0, 5}, "      <256ns         7\n"},
		{[]int64{0, 0, 0, 0, 0, 0, 1, 0, 30, 0, 15}, "      <256ns         1\n" +
			"   256-512          30 " + bar(48) + "\n" +
			"   512-1024          0 \n" +
			"  1024-2048         15 " + bar(24) + "\n"},
		{[]int64{0, 0, 0, 0, 0, 0, 0, 64, 0, 16}, "      <256ns        64\n" +
			"   512-1024         16 " + bar(12) + "\n"},
	} {
		var b bytes.Buffer
		writeHistogram(&b, tc.octaves)
		if got := b.String(); got != tc.want {
			t.Errorf("octaves %v:\n%s\nwant\n%s", tc.octaves, got, tc.want)
		}
	}
}
