package driver_test

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"mlid/internal/lint/analysis"
	"mlid/internal/lint/driver"
	"mlid/internal/lint/hotpath"
	"mlid/internal/lint/load"
)

// fixture loads the selectorpure testdata package: 9 analyzer-level
// findings, one of which carries a reasoned //lint:ignore directive the
// driver must honor in both output modes.
func fixture(t *testing.T) []*load.Package {
	t.Helper()
	p, err := load.Dir("../hotpath/testdata/src/selectorpure/sim")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return []*load.Package{p}
}

const wantFindings = 8 // 9 wanted diagnostics in the fixture, 1 suppressed

// TestRunTextAppliesIgnores pins the text mode: finding count after
// suppression and the "file:line:col: message (analyzer)" shape.
func TestRunTextAppliesIgnores(t *testing.T) {
	var buf bytes.Buffer
	n, err := driver.Run(fixture(t), []*analysis.Analyzer{hotpath.SelectorAnalyzer}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantFindings {
		t.Fatalf("Run reported %d findings, want %d:\n%s", n, wantFindings, buf.String())
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != wantFindings {
		t.Fatalf("printed %d lines for %d findings:\n%s", len(lines), n, buf.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "(selectorpure)") || !strings.Contains(l, "sim.go:") {
			t.Errorf("line does not look like a vet diagnostic: %q", l)
		}
	}
}

// TestRunJSONMatchesProblemMatcher renders the same findings as JSON lines
// and holds every line against .github/problem-matcher.json's regexp — the
// CI annotation path — so the emitter and the matcher cannot drift apart.
func TestRunJSONMatchesProblemMatcher(t *testing.T) {
	var buf bytes.Buffer
	n, err := driver.RunJSON(fixture(t), []*analysis.Analyzer{hotpath.SelectorAnalyzer}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantFindings {
		t.Fatalf("RunJSON reported %d findings, want %d:\n%s", n, wantFindings, buf.String())
	}

	raw, err := os.ReadFile("../../../.github/problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatalf("problem-matcher.json: %v", err)
	}
	if len(matcher.ProblemMatcher) == 0 || len(matcher.ProblemMatcher[0].Pattern) == 0 {
		t.Fatal("problem-matcher.json has no pattern")
	}
	re, err := regexp.Compile(matcher.ProblemMatcher[0].Pattern[0].Regexp)
	if err != nil {
		t.Fatalf("matcher regexp: %v", err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != wantFindings {
		t.Fatalf("emitted %d lines for %d findings:\n%s", len(lines), n, buf.String())
	}
	for _, l := range lines {
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Severity string `json:"severity"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(l), &d); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", l, err)
		}
		if d.File == "" || d.Line == 0 || d.Severity != "error" || d.Analyzer != "selectorpure" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %q", l)
		}
		if !re.MatchString(l) {
			t.Errorf("problem matcher regexp does not match emitted line: %q", l)
		}
	}
}
