package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput holds the example's stdout against testdata/stdout.txt:
// the paper's FT(4,3) worked examples: Figure 10's LID sets, Figure 11's group routes, every selectable route and the all-to-one hot link.
func TestPinnedOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "stdout.txt"), out.Bytes())
}
