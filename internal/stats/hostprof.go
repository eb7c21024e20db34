package stats

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the host-side Go profiles behind the commands'
// -cpuprofile and -memprofile flags ("" = off). It first creates every
// file the command writes — the reports given (CreateOutputs) and both
// profiles — so an output that cannot be written fails before the run,
// not after it. The returned stop ends the CPU profile and writes the
// heap profile, taken after a collection; its error is the command's.
func StartProfiles(cpuFile, memFile string, reports ...Output) (stop func() error, err error) {
	if err := CreateOutputs(reports...); err != nil {
		return nil, err
	}
	var cpu, mem *os.File
	if memFile != "" {
		if mem, err = os.Create(memFile); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			cpu.Close() // both may be nil: Close reports that, harmlessly
			mem.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err = cpu.Close(); err != nil {
				err = fmt.Errorf("writing %s: %v", cpuFile, err)
			}
		}
		if mem != nil {
			err = errors.Join(err, fill(mem, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			}))
		}
		return err
	}, nil
}

// CreateOutputs creates, empty, each file outs name, so a command line
// naming an output that cannot be written is refused before the run
// rather than after it. The run then writes each with WriteFile. The
// error names the output's flag.
func CreateOutputs(outs ...Output) error {
	for _, o := range outs {
		if o.Path == "" {
			continue
		}
		fh, err := os.Create(o.Path)
		if err == nil {
			err = fh.Close()
		}
		if err != nil {
			return fmt.Errorf("-%s: %w", o.Flag, err)
		}
	}
	return nil
}

// WriteFile creates path and has write fill it; a failed close is a
// failed write. Every file the commands write but the two profiles ends
// here.
func WriteFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	return fill(fh, write)
}

// fill has write fill fh and closes it.
func fill(fh *os.File, write func(io.Writer) error) error {
	err := write(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %v", fh.Name(), err)
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
