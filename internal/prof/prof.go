// Package prof wraps a command's work in the CPU and heap profiles its
// -cpuprofile and -memprofile flags ask for.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Run runs work under a CPU profile written to cpuPath, then writes a heap
// profile to memPath ("" disables either). Both profiles are finished
// whether or not work fails: a failing run is exactly the one worth
// profiling. Run returns work's error, else the first profiling error.
func Run(cpuPath, memPath string, work func() error) error {
	stop, err := startCPU(cpuPath)
	if err != nil {
		return err
	}
	err = work()
	if perr := stop(); err == nil {
		err = perr
	}
	if perr := writeHeap(memPath); err == nil {
		err = perr
	}
	return err
}

// startCPU begins CPU profiling into path and returns the function that
// stops it and closes the file.
func startCPU(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeap records a heap profile to path.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
