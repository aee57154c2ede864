package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedSweep runs Table 1 and the five reduced studies in-process, as
// `ibsweep -table1 -fault -chaos -degraded -adaptive -smstudy -quick
// -series -csv quick` from inside testdata/, and holds stdout against
// testdata/quick.txt and each CSV against its file in testdata/quick/. A
// CSV written but not pinned, or pinned but not written, fails the test.
func TestPinnedSweep(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var stdout, stderr bytes.Buffer
	args := strings.Fields("-table1 -fault -chaos -degraded -adaptive -smstudy -quick -series -csv quick")
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("ibsweep %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
	}
	golden.Check(t, filepath.Join(testdata, "quick.txt"), stdout.Bytes())

	written, err := os.ReadDir("quick")
	if err != nil {
		t.Fatal(err)
	}
	wrote := map[string]bool{}
	for _, e := range written {
		wrote[e.Name()] = true
		got, err := os.ReadFile(filepath.Join("quick", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join(testdata, "quick", e.Name()), got)
	}
	pinned, err := os.ReadDir(filepath.Join(testdata, "quick"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pinned {
		if !wrote[e.Name()] {
			t.Errorf("testdata/quick/%s is pinned but ibsweep did not write it", e.Name())
		}
	}
}

// TestExitStatus pins the failure paths: no action prints the usage and
// exits 2, and a LID-space overflow exits 1 with the hint.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-quick", "\n  -adaptive\n", 2},
		{"-table1 -net 16", "ibsweep: -net \"16\": want MxN, e.g. 32x2\n", 1},
		{"-fault -quick -net 16x3", "ibsweep: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space\n", 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ibsweep %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
