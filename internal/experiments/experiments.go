package experiments

import (
	"fmt"
	"io"
)

// Result is what every experiment returns: its rows, which it prints
// itself.
type Result interface {
	Render(w io.Writer) error
}

// Experiment is one table or figure of the evaluation: its name and the
// one driver call that runs it on a Run.
type Experiment struct {
	Name string
	Run  func(Run) (Result, error)
}

// Experiments is the evaluation in the order it is printed, one entry per
// table, figure, ablation and scenario.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", func(Run) (Result, error) { return Table1(), nil }},
		{"fig4", func(r Run) (Result, error) { return Fig4(r) }},
		{"fig5a", func(r Run) (Result, error) { return Fig5(r, true) }},
		{"fig5b", func(r Run) (Result, error) { return Fig5(r, false) }},
		{"fig6a", func(r Run) (Result, error) { return Fig6(r, true) }},
		{"fig6b", func(r Run) (Result, error) { return Fig6(r, false) }},
		{"fig7", func(r Run) (Result, error) { return Fig7(r) }},
		{"fig8a", func(r Run) (Result, error) { return Fig8a(r) }},
		{"fig8b", func(r Run) (Result, error) { return Fig8b(r) }},
		{"fig9a", func(r Run) (Result, error) { return Fig9(r, true) }},
		{"fig9b", func(r Run) (Result, error) { return Fig9(r, false) }},
		{"ablations", func(r Run) (Result, error) { return Ablations(r) }},
		{"evict", func(r Run) (Result, error) { return EvictionMatrix(r) }},
		{"rankfail", func(r Run) (Result, error) { return RankFailure(r) }},
		{"pipeline", func(r Run) (Result, error) { return Pipeline(r) }},
		{"preempt", func(r Run) (Result, error) { return Preemption(r) }},
		{"migrate", func(r Run) (Result, error) { return Migration(r) }},
		{"elastic", func(r Run) (Result, error) { return Elastic(r) }},
		{"straggler", func(r Run) (Result, error) { return Straggler(r) }},
	}
}

// sizeMB formats a byte count in MiB, as every scenario table prints one.
func sizeMB(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
