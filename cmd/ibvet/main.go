// Command ibvet is the repository's vet: it runs the standard go vet passes
// (as a subprocess) and the custom determinism/pooling analyzers from
// internal/lint over the named packages. It exits non-zero when any pass
// reports a finding, which makes it a CI gate:
//
//	go run ./cmd/ibvet ./...
//
// Individual findings can be suppressed with a reasoned directive on the
// offending line or the line above:
//
//	//lint:ignore maporder replicas commute: every slot is written once
//
// A directive without a reason is ignored. Flags:
//
//	-vet=false   skip the standard `go vet` subprocess
//	-list        print the custom analyzers and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"mlid/internal/lint/analysis"
	"mlid/internal/lint/driver"
	"mlid/internal/lint/hotpath"
	"mlid/internal/lint/load"
	"mlid/internal/lint/maporder"
	"mlid/internal/lint/pktpool"
	"mlid/internal/lint/simdeterminism"
)

// analyzers is the ibvet suite. Order is display order in -list.
var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	maporder.Analyzer,
	pktpool.Analyzer,
	hotpath.Analyzer,
	hotpath.SMAnalyzer,
	hotpath.SelectorAnalyzer,
}

func main() {
	runVet := flag.Bool("vet", true, "also run the standard `go vet` passes")
	list := flag.Bool("list", false, "list the custom analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit custom-analyzer findings as JSON lines (file, line, col, severity, analyzer, message)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ibvet [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *runVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	pkgs, err := load.Packages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibvet: %v\n", err)
		os.Exit(2)
	}
	runDriver := driver.Run
	if *jsonOut {
		runDriver = driver.RunJSON
	}
	n, err := runDriver(pkgs, analyzers, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibvet: %v\n", err)
		os.Exit(2)
	}
	if n > 0 || failed {
		os.Exit(1)
	}
}
