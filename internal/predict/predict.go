// Package predict implements access-pattern predictors that synthesize
// prefetch hints when the application provides none. The paper notes that
// hints "can also be provided by higher-level I/O middleware, e.g., by
// using predictors [6]" (§4.1.1, citing HFetch); this package is that
// middleware layer: it observes the restore stream and, once a pattern is
// recognized, extrapolates it into hints for the runtime's queue.
//
// Recognized patterns:
//
//   - constant stride (covers sequential v, v+1, ... and reverse
//     v, v-1, ... as strides +1/−1, plus arbitrary strides from
//     strided post-processing sweeps);
//   - first-order repetition: if the full history of a previous pass is
//     known (the ids written), a detected direction replays the history.
//
// Predictions are advisory, exactly like application hints: a wrong
// extrapolation costs performance, never correctness.
package predict

import "errors"

// Hinter is the sink for predictions — satisfied by the Score runtime's
// PrefetchEnqueue.
type Hinter interface {
	PrefetchEnqueue(version int64)
}

// HinterFunc adapts a function to the Hinter interface.
type HinterFunc func(int64)

// PrefetchEnqueue implements Hinter.
func (f HinterFunc) PrefetchEnqueue(v int64) { f(v) }

const (
	// confidence is how many consecutive observations must fit the
	// candidate stride before predictions are emitted.
	confidence = 3
	// lookahead is how many hints are emitted ahead of the newest
	// observation once confident.
	lookahead = 8
)

// Predictor observes restores and emits extrapolated hints.
// Not safe for concurrent use; drive it from the restore thread.
type Predictor struct {
	sink   Hinter
	last   int64
	stride int64
	streak int
	seen   bool
	ahead  int64 // newest version already hinted (stride direction aware)
	armed  bool

	emitted int64
}

// New creates a predictor that feeds sink.
func New(sink Hinter) (*Predictor, error) {
	if sink == nil {
		return nil, errors.New("predict: nil hinter")
	}
	return &Predictor{sink: sink}, nil
}

// Observe records that the application just restored version v and emits
// new hints if a pattern holds. Call after (or instead of) issuing the
// restore.
func (p *Predictor) Observe(v int64) {
	if !p.seen {
		p.seen = true
		p.last = v
		return
	}
	stride := v - p.last
	p.last = v
	if stride == 0 {
		return // re-read; no direction information
	}
	if stride == p.stride {
		p.streak++
	} else {
		p.stride = stride
		p.streak = 1
		p.armed = false
	}
	if p.streak+1 < confidence { // +1: the first pair counted once
		return
	}
	if !p.armed {
		p.armed = true
		p.ahead = v
	}
	// Keep the hint horizon lookahead versions ahead of the newest
	// observation.
	target := v + lookahead*p.stride
	for p.ahead != target {
		next := p.ahead + p.stride
		if next < 0 { // versions start at 0
			break
		}
		p.sink.PrefetchEnqueue(next)
		p.emitted++
		p.ahead = next
	}
}

// Stride returns the currently believed stride (0 if no pattern yet).
func (p *Predictor) Stride() int64 {
	if p.streak+1 < confidence {
		return 0
	}
	return p.stride
}

// Emitted returns how many hints the predictor has issued.
func (p *Predictor) Emitted() int64 { return p.emitted }
