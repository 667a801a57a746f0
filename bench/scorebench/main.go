// Command scorebench is the repository's benchmark: paper-scale
// workloads driven through the public score API, reporting simulated and
// host end-to-end metrics and, from a separate traced run, per-layer
// host shares, API spans, boundary counts and isolated layer drivers.
// See bench/README.md.
//
//	scorebench -workload W -seed N -seconds S -trace 0|1   one run, one result line
//	scorebench -seed N -out FILE [-runs R]                  every workload, each in a child process
//	scorebench -selfcheck -out FILE                         the benchmark proves it measures
//	scorebench -compare A.json B.json                       parent A against change B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	gpuCache  int64
	outDir    string
	out       string
	runs      int
	selfcheck bool
	compare   bool
	spec      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: shot i uses trace seed seed*1000+i")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds; scales the frozen shot counts")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Int64Var(&o.gpuCache, "gpu-cache", 0, "override the 4 GiB GPU cache reservation (used by -selfcheck)")
	flag.StringVar(&o.outDir, "outdir", "bench/out", "directory for span files, profiles and layer tables")
	flag.StringVar(&o.out, "out", "bench/out/run.json", "run file written by a full run or -selfcheck")
	flag.IntVar(&o.runs, "runs", 1, "end-to-end runs per workload, on seeds seed, seed+1, …")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the four-part selfcheck and record it in -out")
	flag.BoolVar(&o.compare, "compare", false, "compare two run files given as arguments")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark definition with the bounds")
	flag.Parse()
	if err := o.dispatch(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "scorebench:", err)
		os.Exit(1)
	}
}

func (o options) dispatch(args []string) error {
	if o.seconds < 1 || o.runs < 1 {
		return fmt.Errorf("-seconds and -runs must be at least 1")
	}
	switch {
	case o.workload != "":
		return o.runOne()
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run files")
		}
		s, err := loadSpec(o.spec)
		if err != nil {
			return err
		}
		a, err := loadRunFile(args[0])
		if err != nil {
			return err
		}
		b, err := loadRunFile(args[1])
		if err != nil {
			return err
		}
		return printCompare(os.Stdout, compareRuns(s, a, b))
	case o.selfcheck:
		return o.runSelfcheck()
	}

	f, err := runSet(o.seed, o.runs, o.seconds, true, o.outDir)
	if err != nil {
		return err
	}
	if err := o.writeOut(f); err != nil {
		return err
	}
	for _, w := range f.Workloads {
		for _, name := range []string{"wall_s", "setup_s", "sim_ckpt_gbps", "sim_restore_gbps"} {
			fmt.Printf("%-16s %-18s %.5g\n", w.Name, name, median(w.samples(name)))
		}
	}
	fmt.Println("wrote", o.out)
	return nil
}

// runOne is the driver's entry: one workload in this process, its
// result the last line of standard output. A run that cannot vouch for
// its numbers prints none.
func (o options) runOne() error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res, err := run(runConfig{w: w, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		gpuCache: o.gpuCache, outDir: o.outDir})
	if err != nil {
		return fmt.Errorf("%s: failed: %w", w.Name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (o options) runSelfcheck() error {
	s, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	runs := o.runs
	if runs < 3 {
		runs = 3
	}
	f, ok, err := selfcheck(s, o.seed, runs, o.seconds, o.outDir)
	if err != nil {
		return err
	}
	if err := o.writeOut(f); err != nil {
		return err
	}
	for _, c := range f.Selfcheck {
		verdict := "ok  "
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("%s (%s) %s: %s\n", verdict, c.Part, c.Name, c.Detail)
	}
	if !ok {
		return fmt.Errorf("selfcheck failed (see %s)", o.out)
	}
	return nil
}

func (o options) writeOut(f runFile) error {
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	return writeRunFile(o.out, f)
}
