package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mlid/internal/golden"
)

// TestPinnedOutput runs both collective exchanges in-process and holds
// their stdout against testdata/<collective>.txt.
func TestPinnedOutput(t *testing.T) {
	for _, c := range []string{"gather", "alltoall"} {
		t.Run(c, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := strings.Fields("-m 8 -n 2 -collective " + c)
			if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
				t.Fatalf("ibcollective %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", c+".txt"), stdout.Bytes())
		})
	}
}
