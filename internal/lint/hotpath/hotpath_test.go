package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
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

// TestContractNamesDeclared guards the name tables against renames: every
// function hotFuncs and smHandlers list must be declared in package sim's
// non-test files. A contract covers functions by name, so a renamed or
// merged function would otherwise drop out of it without a finding.
func TestContractNamesDeclared(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "sim", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared[fn.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no function declarations in package sim")
	}
	for _, table := range []struct {
		name  string
		funcs map[string]bool
	}{{"hotFuncs", hotFuncs}, {"smHandlers", smHandlers}} {
		var missing []string
		for fn := range table.funcs {
			if !declared[fn] {
				missing = append(missing, fn)
			}
		}
		sort.Strings(missing)
		for _, fn := range missing {
			t.Errorf("%s lists %s, which package sim does not declare", table.name, fn)
		}
	}
}
