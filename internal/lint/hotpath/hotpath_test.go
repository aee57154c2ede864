package hotpath

import (
	"testing"

	"mlid/internal/lint/linttest"
)

func TestHotPath(t *testing.T) {
	linttest.Run(t, Analyzer, "hotpath/sim")
}

func TestSMHotPath(t *testing.T) {
	linttest.Run(t, SMAnalyzer, "smhotpath/sim")
}

func TestSelectorPure(t *testing.T) {
	linttest.Run(t, SelectorAnalyzer, "selectorpure/sim")
}
