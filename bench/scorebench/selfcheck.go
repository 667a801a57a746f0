package main

import (
	"fmt"
	"math"
	"strings"
)

// checkResult is one selfcheck verdict, recorded in the run JSON.
type checkResult struct {
	Part   string `json:"part"`
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

func (s spec) endToEnd(name string) specMetric {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	return specMetric{}
}

func isSim(name string) bool { return strings.HasPrefix(name, "sim_") }

// selfcheck has the benchmark prove that it measures:
//
//	(a) two back-to-back sets of the same code agree within every bound;
//	(b) halving the GPU cache moves sim_ckpt_gbps on rtm_hinted by more
//	    than its bound and leaves wide_coupled's simulated throughputs,
//	    waits and tails alone;
//	(c) observed_rtm agrees with rtm_hinted on every simulated metric
//	    while its wall time per shot and allocations are outside bound;
//	(d) the harness is under 5 % of a traced profile and tracing costs
//	    under 25 % of a shot's wall time.
//
// It returns set A with the verdicts attached.
func selfcheck(s spec, seed int64, runs, seconds int, outDir string) (runFile, bool, error) {
	setA, err := runSet(seed, runs, seconds, true, outDir)
	if err != nil {
		return setA, false, err
	}
	setB, err := runSet(seed, runs, seconds, false, outDir)
	if err != nil {
		return setA, false, err
	}
	var checks []checkResult
	add := func(part, name string, pass bool, format string, args ...any) {
		checks = append(checks, checkResult{part, name, pass, fmt.Sprintf(format, args...)})
	}

	for _, r := range compareRuns(s, setA, setB) {
		add("a", r.Workload+"/"+r.Metric, math.Abs(r.Worse) <= r.Bound,
			"medians %.5g and %.5g %s differ by %+.2f%%, bound %.0f%%", r.A[1], r.B[1], r.Unit, 100*r.Worse, 100*r.Bound)
	}

	for _, name := range []string{"rtm_hinted", "wide_coupled"} {
		half, err := child(name, seed, seconds, false, outDir, gpuCacheBytes/2)
		if err != nil {
			return setA, false, err
		}
		full, _ := setA.workload(name)
		for _, m := range s.EndToEnd {
			// The makespan is exempt: every client's cache is allocated
			// at construction, one client after the other, so half the
			// cache is 512 x 2 ms less makespan on wide_coupled whatever
			// the eviction policy does.
			if !isSim(m.Name) || m.Name == "sim_makespan_s" {
				continue
			}
			w := worse(full.EndToEnd[0].Metrics[m.Name].Value, half.Metrics[m.Name].Value, m.Better)
			detail := fmt.Sprintf("half the GPU cache: %+.2f%% worse, bound %.0f%%", 100*w, 100*m.Bound)
			switch {
			case name == "wide_coupled":
				add("b", name+"/"+m.Name, math.Abs(w) <= m.Bound, "%s (must not move)", detail)
			case m.Name == "sim_ckpt_gbps":
				add("b", name+"/"+m.Name, w > m.Bound, "%s (must move)", detail)
			}
		}
	}

	plain, _ := setA.workload("rtm_hinted")
	observed, _ := setA.workload("observed_rtm")
	pw, _ := findWorkload("rtm_hinted")
	ow, _ := findWorkload("observed_rtm")
	for _, m := range s.EndToEnd {
		a, b := median(plain.samples(m.Name)), median(observed.samples(m.Name))
		switch {
		case isSim(m.Name):
			w := worse(a, b, m.Better)
			add("c", m.Name, math.Abs(w) <= m.Bound, "observed %.5g vs plain %.5g %s: %+.2f%%, bound %.0f%%", b, a, m.Unit, 100*w, 100*m.Bound)
		case m.Name == "wall_s":
			a, b = a/float64(pw.shots(seconds)), b/float64(ow.shots(seconds))
			fallthrough
		case m.Name == "allocs_per_shot":
			w := worse(a, b, m.Better)
			add("c", m.Name+" per shot", w > m.Bound, "observed %.5g vs plain %.5g: %+.1f%%, must exceed the %.0f%% bound", b, a, 100*w, 100*m.Bound)
		}
	}

	for _, w := range setA.Workloads {
		harness := w.PerLayer.Metrics["host.harness.self_share"].Value
		overhead := w.PerLayer.Metrics["trace_overhead_ratio"].Value
		add("d", w.Name+"/host.harness.self_share", harness < 0.05, "%.2f%% of CPU samples, limit 5%%", 100*harness)
		add("d", w.Name+"/trace_overhead_ratio", overhead < 1.25, "traced/untraced wall per shot %.3f, limit 1.25", overhead)
	}

	setA.Selfcheck = checks
	ok := true
	for _, c := range checks {
		ok = ok && c.Pass
	}
	return setA, ok, nil
}
