package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput runs ibtopo in-process and holds each stdout against its
// file in testdata/: the all-to-one hot-link load of both schemes on
// FT(8,3) (SLID 124, MLID 31) and the paper's FT(4,3) worked examples —
// the Figure 10 LID sets, a traced route, every selectable route and one
// switch's forwarding table.
func TestPinnedOutput(t *testing.T) {
	for _, tc := range []struct{ file, args string }{
		{"hotload-8x3.txt", "-m 8 -n 3 -hotload 5"},
		{"lids-4x3.txt", "-m 4 -n 3 -lids"},
		{"trace-4x3.txt", "-m 4 -n 3 -trace 0:4"},
		{"paths-4x3.txt", "-m 4 -n 3 -paths 0:4"},
		{"lft-4x3.txt", "-m 4 -n 3 -lft 12"},
	} {
		t.Run(strings.TrimSuffix(tc.file, ".txt"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 || stderr.Len() > 0 {
				t.Fatalf("ibtopo %s: exit %d, stderr %q", tc.args, code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", tc.file), stdout.Bytes())
		})
	}
}

// TestExitStatus pins the failure paths: a usage error exits 2, a bad
// node pair exits 1 with its message after the summary lines.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-nosuchflag", "flag provided but not defined: -nosuchflag", 2},
		{"-m 4 -n 3 -trace 0:99", "ibtopo: node IDs must be in [0,16)\n", 1},
		{"-m 4 -n 3 -lft 20", "ibtopo: switch 20 out of range [0,20)\n", 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ibtopo %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
