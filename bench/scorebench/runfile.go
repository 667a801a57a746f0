package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the names, units and bounds the harness
// reports against.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

const runSchema = "scorebench-run/v1"

// runFile is what -out writes: every workload's end-to-end results (one
// per seed) and its traced per-layer result, plus the selfcheck verdicts
// when -selfcheck produced the file.
type runFile struct {
	Schema     string         `json:"schema"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Workloads  []workloadRuns `json:"workloads"`
	Selfcheck  []checkResult  `json:"selfcheck,omitempty"`
}

type workloadRuns struct {
	Name     string   `json:"name"`
	EndToEnd []result `json:"end_to_end"`
	PerLayer *result  `json:"per_layer,omitempty"`
}

// samples returns a metric's value in every end-to-end run.
func (w workloadRuns) samples(name string) []float64 {
	var out []float64
	for _, r := range w.EndToEnd {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f runFile) workload(name string) (workloadRuns, bool) {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadRuns{}, false
}

func writeRunFile(path string, f runFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRunFile(path string) (runFile, error) {
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != runSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, runSchema)
	}
	return f, nil
}

// child runs one workload in its own process (this binary again) and
// parses the result line it prints last.
func child(name string, seed int64, seconds int, trace bool, outDir string, gpuCache int64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-outdir", outDir,
		"-gpu-cache", strconv.FormatInt(gpuCache, 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (seed %d): %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (seed %d): result line: %w", name, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s (seed %d): %d of %d operations failed", name, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runSet runs every workload runs times on consecutive seeds and,
// with traced set, once more under the tracer.
func runSet(seed int64, runs, seconds int, traced bool, outDir string) (runFile, error) {
	f := runFile{Schema: runSchema, Seed: seed, Seconds: seconds, GoMaxProcs: benchProcs(), GoVersion: runtime.Version()}
	for _, w := range workloads {
		wr := workloadRuns{Name: w.Name}
		for r := 0; r < runs; r++ {
			res, err := child(w.Name, seed+int64(r), seconds, false, outDir, 0)
			if err != nil {
				return f, err
			}
			wr.EndToEnd = append(wr.EndToEnd, res)
		}
		if traced {
			res, err := child(w.Name, seed, seconds, true, outDir, 0)
			if err != nil {
				return f, err
			}
			wr.PerLayer = &res
		}
		f.Workloads = append(f.Workloads, wr)
	}
	return f, nil
}
