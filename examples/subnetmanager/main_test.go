package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput holds the example's stdout against testdata/stdout.txt:
// the MAD bring-up of FT(8,2), its match with the oracle subnet and one simulated operating point.
func TestPinnedOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "stdout.txt"), out.Bytes())
}
