package predict

import (
	"slices"
	"testing"
	"testing/quick"
)

type recorder struct{ hints []int64 }

func (r *recorder) PrefetchEnqueue(v int64) { r.hints = append(r.hints, v) }

func newT(t *testing.T) (*Predictor, *recorder) {
	t.Helper()
	r := &recorder{}
	p, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// observe feeds vs to p in order.
func observe(p *Predictor, vs ...int64) {
	for _, v := range vs {
		p.Observe(v)
	}
}

// run returns the versions from first stepping by stride, n of them.
func run(first, stride int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)*stride
	}
	return out
}

func TestNoHintsBeforeConfidence(t *testing.T) {
	p, r := newT(t)
	observe(p, run(10, 1, confidence-1)...)
	if len(r.hints) != 0 {
		t.Fatalf("hints before confidence: %v", r.hints)
	}
	if p.Stride() != 0 {
		t.Errorf("stride reported before confidence: %d", p.Stride())
	}
}

func TestSequentialPattern(t *testing.T) {
	p, r := newT(t)
	observe(p, run(0, 1, confidence)...) // confident now: the horizon fills
	if want := run(confidence, 1, lookahead); !slices.Equal(r.hints, want) {
		t.Fatalf("hints = %v, want %v", r.hints, want)
	}
	// The next observation slides the horizon by one.
	p.Observe(confidence)
	if got, want := r.hints[len(r.hints)-1], int64(confidence+lookahead); got != want {
		t.Errorf("horizon hint = %d, want %d", got, want)
	}
	if p.Stride() != 1 {
		t.Errorf("stride = %d, want 1", p.Stride())
	}
}

func TestReversePattern(t *testing.T) {
	const top = 40
	p, r := newT(t)
	observe(p, run(top, -1, confidence)...)
	if want := run(top-confidence, -1, lookahead); !slices.Equal(r.hints, want) {
		t.Fatalf("hints = %v, want %v", r.hints, want)
	}
	if p.Stride() != -1 {
		t.Errorf("stride = %d", p.Stride())
	}
}

func TestStridedPattern(t *testing.T) {
	p, r := newT(t)
	observe(p, run(0, 4, confidence)...)
	if want := run(4*confidence, 4, lookahead); !slices.Equal(r.hints, want) {
		t.Fatalf("strided hints = %v, want %v", r.hints, want)
	}
}

func TestPatternBreakResetsConfidence(t *testing.T) {
	p, r := newT(t)
	observe(p, run(0, 1, confidence)...)
	n := len(r.hints)
	if n == 0 {
		t.Fatal("no hints after a confident run")
	}
	// A break starts a new run at 100: every observation of it short of
	// confidence emits nothing, the one that reaches it re-arms.
	for i, v := range run(100, 1, confidence) {
		p.Observe(v)
		if armed := i == confidence-1; armed != (len(r.hints) > n) {
			t.Fatalf("after %d observations of the new run: %d new hints", i+1, len(r.hints)-n)
		}
	}
	if got, want := r.hints[n], int64(100+confidence); got != want {
		t.Errorf("re-armed horizon starts at %d, want %d", got, want)
	}
	if p.Stride() != 1 {
		t.Errorf("stride = %d", p.Stride())
	}
}

func TestClampAtZero(t *testing.T) {
	// A reverse run ending at confidence-1 reaches version 0 one hint in;
	// nothing below it is predicted.
	p, r := newT(t)
	observe(p, run(confidence, -1, confidence)...)
	if want := []int64{0}; !slices.Equal(r.hints, want) {
		t.Errorf("clamped hints = %v, want %v", r.hints, want)
	}
	// A run that reaches 0 itself has nothing left to predict.
	p2, r2 := newT(t)
	observe(p2, run(confidence-1, -1, confidence)...)
	if len(r2.hints) != 0 {
		t.Errorf("hints below version 0: %v", r2.hints)
	}
}

func TestRereadsIgnored(t *testing.T) {
	p, r := newT(t)
	p.Observe(1)
	p.Observe(1) // stride 0: ignore
	observe(p, run(2, 1, confidence-1)...)
	if len(r.hints) == 0 {
		t.Error("re-read broke pattern detection permanently")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil hinter accepted")
	}
}

func TestHinterFunc(t *testing.T) {
	var got []int64
	p, _ := New(HinterFunc(func(v int64) { got = append(got, v) }))
	observe(p, run(5, 1, confidence)...)
	if want := run(5+confidence, 1, lookahead); !slices.Equal(got, want) {
		t.Errorf("HinterFunc hints = %v, want %v", got, want)
	}
}

func TestNoDuplicateHintsProperty(t *testing.T) {
	// Property: for any monotone run observed, the predictor never
	// emits the same version twice.
	f := func(start int64, up bool, steps uint8) bool {
		r := &recorder{}
		p, _ := New(r)
		stride := int64(1)
		if !up {
			stride = -1
		}
		observe(p, run(start%1000, stride, int(steps%50)+2)...)
		seen := map[int64]bool{}
		for _, h := range r.hints {
			if seen[h] {
				return false
			}
			seen[h] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
