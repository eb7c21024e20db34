package stats

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the host-side Go profiles behind the commands'
// -cpuprofile and -memprofile flags ("" = off). The returned stop ends
// the CPU profile and writes the heap profile, taken after a
// collection; a file it cannot write is reported on standard error.
func StartProfiles(cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memFile != "" && err == nil {
			err = writeHeapProfile(memFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		}
	}, nil
}

func writeHeapProfile(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
