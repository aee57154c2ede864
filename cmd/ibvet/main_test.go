package main

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mlid/internal/lint/analysis"
)

// asVetTool makes the test binary run ibvet's main instead of its tests,
// so the go vet the tests start can use the test binary itself as the vet
// tool without a separate go build.
const asVetTool = "IBVET_TEST_AS_VETTOOL"

func TestMain(m *testing.M) {
	if os.Getenv(asVetTool) != "" {
		main()
	}
	os.Exit(m.Run())
}

// goVet runs `go vet -vettool=<this binary> ./pkg` from the module root
// and returns its combined output.
func goVet(pkg string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "vet", "-vettool="+exe, "./"+pkg)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), asVetTool+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// matcher is the regexp CI's .github/problem-matcher.json turns findings
// into file annotations with.
func matcher(t *testing.T) *regexp.Regexp {
	t.Helper()
	raw, err := os.ReadFile("../../.github/problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct{ Regexp string }
		}
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("problem-matcher.json: %v", err)
	}
	if len(m.ProblemMatcher) == 0 || len(m.ProblemMatcher[0].Pattern) == 0 {
		t.Fatal("problem-matcher.json has no pattern")
	}
	return regexp.MustCompile(m.ProblemMatcher[0].Pattern[0].Regexp)
}

// vetFixture runs the whole vet-tool protocol once over the selectorpure
// fixture and hands every test the same output and error.
var vetFixture = sync.OnceValues(func() (string, error) {
	return goVet("internal/lint/hotpath/testdata/src/selectorpure/sim")
})

// fixtureLines returns the fixture's output lines without the go
// command's package header, failing the test unless go vet exited non-zero.
func fixtureLines(t *testing.T) []string {
	t.Helper()
	out, err := vetFixture()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet: %v, want a non-zero exit:\n%s", err, out)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "# ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestGoVetAppliesIgnores: the selectorpure fixture has 9 diagnostics, one
// of them under a reasoned //lint:ignore, so 8 are printed and the run
// fails.
func TestGoVetAppliesIgnores(t *testing.T) {
	n := 0
	lines := fixtureLines(t)
	for _, line := range lines {
		if strings.HasSuffix(line, " (selectorpure)") {
			n++
		}
	}
	if n != 8 {
		t.Errorf("got %d selectorpure findings, want 8:\n%s", n, strings.Join(lines, "\n"))
	}
}

// TestGoVetMatchesProblemMatcher holds every line go vet prints for the
// fixture to the shape CI's problem matcher parses.
func TestGoVetMatchesProblemMatcher(t *testing.T) {
	re := matcher(t)
	for _, line := range fixtureLines(t) {
		if !re.MatchString(line) {
			t.Errorf("problem matcher does not match %q", line)
		}
	}
}

// TestGoVetClean holds a fixture no analyzer flags to a silent exit 0.
func TestGoVetClean(t *testing.T) {
	if out, err := goVet("internal/lint/simdeterminism/testdata/src/tools"); err != nil || out != "" {
		t.Fatalf("go vet: %v, want exit 0 and no output:\n%s", err, out)
	}
}

// TestReportDirectives pins which //lint:ignore directives suppress a
// maporder finding on a function's return line: a reasoned one naming the
// analyzer (or "*") on that line or the line above, and no other.
func TestReportDirectives(t *testing.T) {
	for _, tc := range []struct {
		body string
		kept bool
	}{
		{"//lint:ignore maporder keys commute\n\treturn 0", false},
		{"return 0 //lint:ignore maporder keys commute", false},
		{"//lint:ignore pktpool,maporder keys commute\n\treturn 0", false},
		{"//lint:ignore * keys commute\n\treturn 0", false},
		{"//lint:ignore maporder\n\treturn 0", true},
		{"return 0 //lint:ignore maporder", true},
		{"//lint:ignore pktpool keys commute\n\treturn 0", true},
		{"//lint:ignore maporder keys commute\n\n\treturn 0", true},
		{"// maporder keys commute\n\treturn 0", true},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", "package p\n\nfunc f() int {\n\t"+tc.body+"\n}\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ret := f.Decls[0].(*ast.FuncDecl).Body.List[0]
		lines := report(fset, []*ast.File{f}, []analysis.Diagnostic{{Pos: ret.Pos(), Message: "m", Analyzer: "maporder"}})
		if kept := len(lines) == 1; kept != tc.kept {
			t.Errorf("%q: finding kept = %v, want %v", tc.body, kept, tc.kept)
		}
	}
}
