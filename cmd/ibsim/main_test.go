package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput runs one simulation with the latency histogram, the
// busiest ports and a packet trace in-process and holds its stdout against
// testdata/smoke.txt.
func TestPinnedOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := strings.Fields("-m 4 -n 2 -hist -ports 3 -trace 1 -warmup 5000 -measure 20000")
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("ibsim %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
	}
	golden.Check(t, filepath.Join("testdata", "smoke.txt"), stdout.Bytes())
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
