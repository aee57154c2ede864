package verify

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
)

// TestEveryKindGraded: every finding kind has an analyzer and a severity
// in the kinds table, and render gives it a location and a message.
func TestEveryKindGraded(t *testing.T) {
	rep := &Report{
		t:     topology.MustNew(4, 2),
		eng:   core.NewMLID(),
		Stats: Stats{Quality: []QualityReport{{Matrix: "all-to-all"}}},
		chans: []int32{0, 5},
	}
	for k := kind(0); k < numKinds; k++ {
		if sev := kinds[k].severity; sev < Info || sev > Error {
			t.Errorf("kind %d has severity %d", k, sev)
		}
		f := rep.render(record{kind: k, to: 2})
		if f.Analyzer != analyzerNames[kinds[k].analyzer] || f.Location == "" || f.Message == "" {
			t.Errorf("kind %d renders incompletely: %+v", k, f)
		}
	}
}
