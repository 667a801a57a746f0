// Registry: a process-wide collection point for run summaries and sampled
// series. Its one export is the score-metrics/v1 JSON file, which
// internal/report writes and reads back with the codec shared by every
// score-*/v1 format (report.MetricsFile).
package metrics

// Export is one labeled run's observability snapshot.
type Export struct {
	Label   string              `json:"label"`
	Summary Summary             `json:"summary"`
	Series  map[string][]Sample `json:"series,omitempty"`
}

// Registry accumulates labeled run summaries and series. It takes no
// lock: the tasks of one clock use it, one at a time, or its owner does
// between runs.
type Registry struct {
	runs  []Export
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{index: map[string]int{}} }

// Record merges s into the run registered under label (creating it on
// first use), so repeated shots of the same scenario accumulate.
func (r *Registry) Record(label string, s Summary) {
	i := r.run(label)
	r.runs[i].Summary = Merge(r.runs[i].Summary, s)
}

// RecordSeries attaches sampled timelines to the labeled run. Series with
// the same name concatenate chronologically.
func (r *Registry) RecordSeries(label string, series map[string][]Sample) {
	if len(series) == 0 {
		return
	}
	i := r.run(label)
	if r.runs[i].Series == nil {
		r.runs[i].Series = map[string][]Sample{}
	}
	for name, pts := range series {
		r.runs[i].Series[name] = append(r.runs[i].Series[name], pts...)
	}
}

// run returns the index of label's run, creating it on first use.
func (r *Registry) run(label string) int {
	if i, ok := r.index[label]; ok {
		return i
	}
	r.runs = append(r.runs, Export{Label: label})
	r.index[label] = len(r.runs) - 1
	return len(r.runs) - 1
}

// Runs snapshots the recorded runs in first-recorded order. The slice is
// a copy; a later Record or RecordSeries does not change its length or
// its entries' summaries.
func (r *Registry) Runs() []Export { return append(make([]Export, 0, len(r.runs)), r.runs...) }

// Len reports the number of labeled runs recorded.
func (r *Registry) Len() int { return len(r.runs) }
