// Package linttest is the repository's analysistest: it runs one analyzer
// over a testdata package and checks its diagnostics against "// want"
// comments in the sources. The conventions match
// golang.org/x/tools/go/analysis/analysistest so the testdata files would
// work unchanged under the real harness:
//
//	m = rand.Intn(9) // want `global math/rand`
//
// Each quoted fragment after "want" is a regular expression that must match
// the message of a diagnostic reported on that line; lines without a want
// comment must produce no diagnostics.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mlid/internal/lint/analysis"
)

// Every fixture imports only the standard library, which the source
// importer type-checks from GOROOT. One importer serves the whole test
// binary, so each standard package is checked once however many fixtures
// import it.
var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil)
)

// expectation is one "// want" fragment: a message pattern expected on a
// specific file line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	met     bool
}

// wantRe matches the comment tail; fragments are Go string literals
// (backquoted or double-quoted), scanned with strconv.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants reads the expectations of one parsed source file.
func parseWants(t *testing.T, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(m[1])
			for rest != "" {
				lit, tail, ok := cutLiteral(rest)
				if !ok {
					t.Fatalf("linttest: %s: malformed want comment %q", pos, m[1])
				}
				pat, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("linttest: %s: bad pattern %q: %v", pos, lit, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: pat})
				rest = strings.TrimSpace(tail)
			}
		}
	}
	return out
}

// cutLiteral splits one leading quoted string off s.
func cutLiteral(s string) (lit, rest string, ok bool) {
	if s == "" {
		return "", "", false
	}
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", false
		}
		return s[1 : 1+end], s[2+end:], true
	case '"':
		// Walk to the closing unescaped quote, then unquote.
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				u, err := strconv.Unquote(s[:i+1])
				if err != nil {
					return "", "", false
				}
				return u, s[i+1:], true
			}
		}
	}
	return "", "", false
}

// Run loads testdata/src/<pkg> relative to the caller's package directory,
// applies the analyzer, and fails the test on any mismatch between reported
// diagnostics and the "// want" expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(names) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}
	var files []*ast.File
	var wants []*expectation
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		files = append(files, f)
		wants = append(wants, parseWants(t, f)...)
	}
	diags, err := analysis.Check(fset, filepath.Base(dir), files, stdlib, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
diags:
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
				w.met = true
				continue diags
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}
