package stats

import (
	"fmt"
	"io"
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
			err = WriteFile(memFile, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		}
	}, nil
}

// WriteFile creates path and has write fill it; a failed close is a
// failed write. Every file the commands write but the streamed CPU
// profile ends here.
func WriteFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return fmt.Errorf("writing %s: %v", path, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", path, err)
	}
	return nil
}

// Output is one file a command writes: the flag naming it, without its
// dash, and the path given ("" = not written).
type Output struct{ Flag, Path string }

// DistinctOutputs refuses a command line that names one file for two
// outputs, which would leave only the last one written and still exit
// 0. The error names the first repeated path and both its flags.
func DistinctOutputs(outs ...Output) error {
	for i, b := range outs {
		for _, a := range outs[:i] {
			if b.Path != "" && a.Path == b.Path {
				return fmt.Errorf("-%s and -%s both write %q; pick distinct files", a.Flag, b.Flag, b.Path)
			}
		}
	}
	return nil
}
