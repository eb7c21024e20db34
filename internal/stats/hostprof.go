package stats

import (
	"cmp"
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
// heap profile, taken after a collection; its error is the command's,
// a write either profiler dropped included (errFile).
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
	cpuw := &errFile{}
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err == nil {
			cpuw.File = cpu
			err = pprof.StartCPUProfile(cpuw)
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
			err = cpuw.close(nil)
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
	w := &errFile{File: fh}
	return w.close(write(w))
}

// errFile is a file that keeps the first error a write to it returned,
// for writers that drop it: the CPU profiler does, and so does the heap
// profile's encoder.
type errFile struct {
	*os.File
	err error
}

func (f *errFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.err = cmp.Or(f.err, err)
	return n, err
}

// close closes the file and returns the first of err, a write's error
// and the close's, naming the file.
func (f *errFile) close(err error) error {
	if err = cmp.Or(err, f.err, f.Close()); err != nil {
		return fmt.Errorf("writing %s: %v", f.Name(), err)
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
