// Package golden compares test output against pinned files: the
// repository's one path for checking and regenerating them. A test hands
// Check the bytes it produced; `go test <pkg> -run <Test> -update` rewrites
// the pinned file instead.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files golden.Check compares against")

// dir is the test binary's package directory, named in the regeneration
// hint. It is taken at start-up, before any test can change directory.
var dir, _ = os.Getwd()

// Check fails t unless got is byte for byte the content of the file at
// path, naming the first differing line and the command that regenerates
// the file. Under -update it writes got to path instead, creating the
// directory if needed.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
			return
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	top, _, _ := strings.Cut(t.Name(), "/")
	regen := "regenerate with: go test " + dir + " -run '^" + top + "$' -update"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\n%s", err, regen)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.SplitAfter(string(got), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	t.Errorf("%s differs at line %d:\n got: %s\nwant: %s\n%s",
		path, i+1, lineAt(gotLines, i), lineAt(wantLines, i), regen)
}

// lineAt quotes line i, or says the output ended before it.
func lineAt(lines []string, i int) string {
	if i >= len(lines) || lines[i] == "" {
		return "(end of output)"
	}
	return strconv.Quote(lines[i])
}
