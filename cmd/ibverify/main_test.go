package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedReports runs ibverify in-process over every golden fabric under
// both schemes, three SM-repaired fault plans, the reduced degraded sweep
// and the FT(16,3) MLID LID-space overflow, in the single-fabric and the
// degraded mode, and holds each stdout against its file in testdata/. Only
// the overflows exit 1, with the addressing finding as their report.
func TestPinnedReports(t *testing.T) {
	for _, tc := range []struct {
		file, args string
		code       int
	}{
		{"golden-mlid-4x4.txt", "-m 4 -n 4 -scheme MLID -vls 4", 0},
		{"golden-slid-4x4.txt", "-m 4 -n 4 -scheme SLID -vls 4", 0},
		{"golden-mlid-8x3.txt", "-m 8 -n 3 -scheme MLID -vls 2", 0},
		{"golden-slid-8x3.txt", "-m 8 -n 3 -scheme SLID -vls 2", 0},
		{"golden-mlid-16x2.txt", "-m 16 -n 2 -scheme MLID -vls 2", 0},
		{"golden-slid-16x2.txt", "-m 16 -n 2 -scheme SLID -vls 2", 0},
		{"golden-mlid-32x2.txt", "-m 32 -n 2 -scheme MLID -vls 1", 0},
		{"golden-slid-32x2.txt", "-m 32 -n 2 -scheme SLID -vls 1", 0},
		{"fault-mlid-8x2.txt", "-m 8 -n 2 -scheme MLID -vls 2 -fault 2:2,9:3", 0},
		{"fault-mlid-8x2-select.txt", "-m 8 -n 2 -scheme MLID -vls 2 -fault 2:2,9:3 -select random", 0},
		{"fault-slid-4x3.jsonl", "-m 4 -n 3 -scheme SLID -vls 2 -json -fault 0:2,4:3,9:2", 0},
		{"degraded-8x3-quick.csv", "-m 8 -n 3 -degraded 0.10 -quick -json", 0},
		{"overflow-mlid-16x3.txt", "-m 16 -n 3 -scheme MLID", 1},
		{"overflow-degraded-16x3.txt", "-m 16 -n 3 -degraded 0.1 -quick", 1},
	} {
		t.Run(strings.TrimSuffix(tc.file, filepath.Ext(tc.file)), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.code || stderr.Len() > 0 {
				t.Fatalf("ibverify %s: exit %d, stderr %q; want exit %d", tc.args, code, stderr.String(), tc.code)
			}
			golden.Check(t, filepath.Join("testdata", tc.file), stdout.Bytes())
		})
	}
}

// TestExitStatus pins the failure paths outside a report: a usage error
// exits 2, a bad fault list exits 1 with its message.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-nosuchflag", "flag provided but not defined: -nosuchflag", 2},
		{"-fault 2", "ibverify: bad link \"2\": want sw:port\n", 1},
		{"-scheme XLID", "ibverify: ", 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ibverify %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
