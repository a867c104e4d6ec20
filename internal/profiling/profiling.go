// Package profiling wires the standard pprof file profiles into nfvsim
// (-cpuprofile / -memprofile / -mutexprofile / -blockprofile), so any
// experiment can be profiled for before/after flame graphs (see
// EXPERIMENTS.md). The benchmark scenarios behind the BENCH.json trajectory
// need no wiring: `go test -bench Scenarios/<name>` has the same four flags.
// Mutex and block profiles exist for contention debugging of the parallel
// cluster driver's worker pool.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles names the output file for each supported profile; an empty path
// skips that profile.
type Profiles struct {
	// CPU receives a CPU profile covering Start..stop.
	CPU string
	// Mem receives a heap profile (live objects after a forced GC) at stop.
	Mem string
	// Mutex receives a mutex-contention profile at stop; enabling it sets
	// runtime mutex profiling (fraction 1) for the whole run.
	Mutex string
	// Block receives a blocking profile at stop; enabling it sets the
	// runtime block profile rate to 1 for the whole run.
	Block string
}

// Start begins the requested profiles and returns a stop function that ends
// the CPU profile and writes the end-of-run profiles. Every path may be
// empty to skip that profile; the stop function is always non-nil and must
// be called exactly once.
func Start(p Profiles) (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	// Contention profiling must be switched on before the workload runs; the
	// profiles themselves are snapshotted at stop.
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("close cpu profile: %w", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return fmt.Errorf("create mem profile: %w", err)
			}
			defer f.Close()
			// Materialize recent frees so the heap profile reflects live
			// memory, the view that matters for steady-state footprint.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write mem profile: %w", err)
			}
		}
		if p.Mutex != "" {
			if err := writeLookup("mutex", p.Mutex); err != nil {
				return err
			}
			runtime.SetMutexProfileFraction(0)
		}
		if p.Block != "" {
			if err := writeLookup("block", p.Block); err != nil {
				return err
			}
			runtime.SetBlockProfileRate(0)
		}
		return nil
	}, nil
}

// writeLookup snapshots a named runtime profile to path.
func writeLookup(name, path string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("runtime profile %q not found", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s profile: %w", name, err)
	}
	defer f.Close()
	if err := prof.WriteTo(f, 0); err != nil {
		return fmt.Errorf("write %s profile: %w", name, err)
	}
	return nil
}
