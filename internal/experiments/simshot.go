package experiments

import (
	"fmt"
	"slices"

	"score"
	"score/internal/slo"
)

// simShot is one score.Sim phase of a scenario, run through the same
// lifecycle as a runShot shot: the Sim records what the Run's observers
// ask for, every client it hands out streams in the Run's chunks and has
// its metrics invariants asserted when it is closed, and the phase ends
// with endShot under its own label.
type simShot struct {
	*score.Sim
	cfg       Run // the Run the phase belongs to
	eng       *slo.Engine
	quiescent bool
	open      []*score.Client
	res       ShotResult
}

// newSimShot builds the phase's Sim from opts plus the Run's observers:
// tracing when OnTrace is set, gauge sampling at run.SampleInterval, and,
// when run.SLO is set, an SLO engine over objs, the scenario's checked-in
// set (none when objs is empty), attached to every client.
func newSimShot(run Run, label string, objs []slo.Objective, opts ...score.Option) (*simShot, error) {
	if err := run.Scale.check(); err != nil {
		return nil, err
	}
	if run.OnTrace != nil {
		opts = append(opts, score.WithTracing())
	}
	sim, err := score.NewSim(append(opts, score.WithSampling(run.SampleInterval))...)
	if err != nil {
		return nil, err
	}
	s := &simShot{Sim: sim, cfg: run, res: ShotResult{Config: ShotConfig{Label: label}}}
	if run.SLO && len(objs) > 0 {
		if s.eng, err = newSLOEngine(sim.Clock().Now, objs, sim.Tracer()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// client opens a client on the phase's Sim, streaming in the Run's
// chunks. Call inside run.
func (s *simShot) client(node, gpu int, opts ...score.ClientOption) (*score.Client, error) {
	opts = append(opts, score.WithChunkSize(s.cfg.ChunkSize))
	if s.eng != nil {
		opts = append(opts, score.WithSLO(s.eng))
	}
	cl, err := s.NewClient(node, gpu, opts...)
	if err == nil {
		s.open = append(s.open, cl)
	}
	return cl, err
}

// clients opens one client per GPU of the Sim in rank order, rank being
// node × GPUs per node + gpu, each with the options opts gives it.
func (s *simShot) clients(opts func(node, rank int) []score.ClientOption) ([]*score.Client, error) {
	var out []*score.Client
	for node := 0; node < s.Nodes(); node++ {
		for gpu := 0; gpu < s.GPUsPerNode(); gpu++ {
			cl, err := s.client(node, gpu, opts(node, len(out))...)
			if err != nil {
				return nil, err
			}
			out = append(out, cl)
		}
	}
	return out, nil
}

// close asserts cl's metrics invariants, the quiescent set when the phase
// runs drained, keeps its summary as the phase's next rank result and
// closes it.
func (s *simShot) close(cl *score.Client) error {
	s.open = slices.DeleteFunc(s.open, func(o *score.Client) bool { return o == cl })
	defer cl.Close()
	if err := cl.CheckMetricsInvariants(s.quiescent); err != nil {
		return fmt.Errorf("rank %d metrics invariants: %w", len(s.res.PerRank), err)
	}
	s.res.PerRank = append(s.res.PerRank, RankResult{Rank: len(s.res.PerRank), Summary: cl.MetricsSummary()})
	return nil
}

// run executes fn as the Sim's root task and ends the shot. quiescent
// says that every client is closed with its flushes drained. The clients
// fn leaves open are closed once it returns: through close when it
// succeeded, unchecked after an error.
func (s *simShot) run(quiescent bool, fn func() error) (ShotResult, error) {
	s.quiescent = quiescent
	var err error
	s.Run(func() {
		err = fn()
		for _, cl := range slices.Clone(s.open) {
			if err == nil {
				err = s.close(cl)
			} else {
				cl.Close()
			}
		}
	})
	if err == nil {
		s.res.Duration, s.res.Series = s.Clock().Now(), s.SampledSeries()
		err = s.cfg.endShot(&s.res, s.eng, s.Tracer())
	}
	if err != nil {
		return s.res, fmt.Errorf("%s: %w", s.res.Label(), err)
	}
	return s.res, nil
}
