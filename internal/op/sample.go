package op

import (
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// Sample forwards each element independently with probability p (Bernoulli
// sampling) — a standard load-shedding operator for overload situations.
// The PRNG is seeded, so a given input stream always yields the same
// sample.
type Sample struct {
	Base
	p   float64
	rng *xrand.Rand
}

// NewSample returns a Bernoulli sampler with pass probability p in [0, 1].
func NewSample(name string, p float64, seed uint64) *Sample {
	if p < 0 || p > 1 {
		panic("op: sample probability out of [0,1]")
	}
	s := &Sample{p: p, rng: xrand.New(seed)}
	s.InitBase(name, 1)
	return s
}

// ProcessBatch implements Sink. The PRNG draws in element order, so a
// given input stream yields the same sample whether it arrives element by
// element or in batches.
func (s *Sample) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := s.BeginWorkBatch(es)
	out := s.scratch(len(es))
	for _, e := range es {
		if s.rng.Bool(s.p) {
			out = append(out, e)
		}
	}
	s.flush(out)
	s.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (s *Sample) Done(port int) {
	if s.MarkDone(port) {
		s.Close()
	}
}
