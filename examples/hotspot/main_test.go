package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput holds the example's stdout against testdata/stdout.txt:
// both schemes' static all-to-one hot-link load on FT(8,2) and the 50%-centric load sweep.
func TestPinnedOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "stdout.txt"), out.Bytes())
}
