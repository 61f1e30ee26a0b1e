// Package workload provides the synthetic, seeded data sources the paper's
// evaluation uses (§6.2): fixed-rate and Poisson (bursty) arrival
// processes, multi-phase burst patterns, and uniform or Zipf-distributed
// element payloads.
//
// A source runs in one of two modes. With a clock it paces itself in real
// time — sleeping until each element's scheduled arrival and stamping
// elements with the actual emission time, so a downstream operator that
// cannot keep pace visibly slows the source (the §6.3 effect). Without a
// clock it is a stamped source: it never sleeps and stamps elements with
// their scheduled arrival instead, which makes logic tests and planning
// experiments deterministic and fast.
package workload

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// Gen fills in the payload (Key, Val, Aux) of the i-th element; the source
// supplies the timestamp.
type Gen func(i int) stream.Element

// Arrival produces the interarrival gap, in nanoseconds, preceding the
// i-th element (i starts at 0; a gap before the first element is legal).
type Arrival interface {
	Next(i int) int64
}

// FixedRate emits exactly every 1/Hz seconds.
type FixedRate struct{ Hz float64 }

// Next implements Arrival.
func (f FixedRate) Next(int) int64 {
	if f.Hz <= 0 {
		return 0
	}
	return int64(1e9 / f.Hz)
}

// Poisson is a Poisson arrival process with the given mean rate —
// exponentially distributed gaps, the bursty-traffic model of §6.2.
type Poisson struct {
	hz  float64
	rng *xrand.Rand
}

// NewPoisson returns a seeded Poisson arrival process.
func NewPoisson(hz float64, seed uint64) *Poisson {
	if hz <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	return &Poisson{hz: hz, rng: xrand.New(seed)}
}

// Next implements Arrival.
func (p *Poisson) Next(int) int64 { return int64(p.rng.Exp(1e9 / p.hz)) }

// Ramp is an arrival process whose rate grows linearly from StartHz to
// EndHz across n elements — the standard way to find an operator's
// saturation point (the stall threshold of §5.1) empirically.
type Ramp struct {
	StartHz, EndHz float64
	N              int
}

// Next implements Arrival.
func (r Ramp) Next(i int) int64 {
	if r.N <= 1 {
		return int64(1e9 / r.EndHz)
	}
	frac := float64(i) / float64(r.N-1)
	if frac > 1 {
		frac = 1
	}
	hz := r.StartHz + (r.EndHz-r.StartHz)*frac
	if hz <= 0 {
		return 0
	}
	return int64(1e9 / hz)
}

// Phase is one segment of a multi-phase arrival pattern.
type Phase struct {
	Count int     // number of elements in this phase
	Hz    float64 // emission rate during the phase
}

// Phases chains fixed-rate phases — the burst pattern of §6.6 (10k at
// 500k/s, 20k at 250/s, 20k at 500k/s, 20k at 250/s).
type Phases struct {
	phases []Phase
}

// NewPhases returns a phased arrival process.
func NewPhases(phases ...Phase) *Phases {
	if len(phases) == 0 {
		panic("workload: NewPhases needs at least one phase")
	}
	return &Phases{phases: phases}
}

// Total returns the total element count across phases.
func (p *Phases) Total() int {
	n := 0
	for _, ph := range p.phases {
		n += ph.Count
	}
	return n
}

// Next implements Arrival.
func (p *Phases) Next(i int) int64 {
	for _, ph := range p.phases {
		if i < ph.Count {
			if ph.Hz <= 0 {
				return 0
			}
			return int64(1e9 / ph.Hz)
		}
		i -= ph.Count
	}
	return 0
}

// Source is a synthetic autonomous stream source implementing op.Source.
type Source struct {
	name       string
	n          int
	gen        Gen
	arr        Arrival
	clock      simtime.Clock
	batch      int  // most elements handed over per ProcessBatch call
	preserveTS bool // keep generator-provided timestamps (replay mode)
	emitted    atomic.Uint64
	sched      atomic.Int64
	stopped    atomic.Bool
}

// New returns a source emitting n generated elements with the given
// arrival process. A nil clock selects stamped mode.
func New(name string, n int, gen Gen, arr Arrival, clock simtime.Clock) *Source {
	if n < 0 {
		panic("workload: negative element count")
	}
	if gen == nil {
		gen = func(i int) stream.Element { return stream.Element{Key: int64(i)} }
	}
	if arr == nil {
		arr = FixedRate{}
	}
	return &Source{name: name, n: n, gen: gen, arr: arr, clock: clock, batch: 1}
}

// Name implements op.Source.
func (s *Source) Name() string { return s.name }

// SetBatch sets the burst size (default 1): Run hands over up to n
// consecutive due elements per call instead of one, amortizing the
// per-element handoff cost. A
// real-time source never sits on a partial burst across a pacing sleep —
// it flushes before sleeping — so batching only coalesces elements that
// are already due together (a burst). Call before the source starts.
func (s *Source) SetBatch(n int) {
	if n < 1 {
		n = 1
	}
	s.batch = n
}

// Emitted returns how many elements have been pushed so far; the §6.3
// experiment samples it to chart the effective input rate.
func (s *Source) Emitted() uint64 { return s.emitted.Load() }

// LagNS returns how far, in nanoseconds, the source is running behind its
// nominal emission schedule at clock time now. A growing lag is the §6.3
// signal that downstream processing cannot keep pace with the input rate.
func (s *Source) LagNS(now int64) int64 {
	lag := now - s.sched.Load()
	if lag < 0 {
		return 0
	}
	return lag
}

// Stop implements op.Source; the source finishes (with Done) at its next
// element boundary.
func (s *Source) Stop() { s.stopped.Store(true) }

// Run implements op.Source. In real-time mode the element timestamp is the
// actual emission time, so downstream backpressure stretches the stream;
// in stamped mode it is the scheduled arrival. Elements that are due
// without sleeping accumulate in a reusable buffer of up to the batch size
// and are handed over with one ProcessBatch call. The buffer is flushed
// before every pacing sleep so a real-time source never delays an element
// it has already generated, and on stop so nothing generated is lost.
func (s *Source) Run(out op.Sink, port int) {
	defer out.Done(port)
	buf := make([]stream.Element, 0, s.batch)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		out.ProcessBatch(port, buf)
		s.emitted.Add(uint64(len(buf)))
		buf = buf[:0]
	}
	var sched int64
	for i := 0; i < s.n; i++ {
		if s.stopped.Load() {
			flush()
			return
		}
		sched += s.arr.Next(i)
		s.sched.Store(sched)
		e := s.gen(i)
		switch {
		case s.preserveTS:
			// replay: keep the recorded timestamp
		case s.clock != nil:
			now := s.clock.Now()
			if d := sched - now; d > 0 {
				flush()
				s.clock.Sleep(d)
				now = s.clock.Now()
			}
			e.TS = now
		default:
			e.TS = sched
		}
		buf = append(buf, e)
		if len(buf) == s.batch {
			flush()
		}
	}
	flush()
}

// Slice returns a source that replays the given elements verbatim
// (timestamps included) as fast as downstream accepts them.
func Slice(name string, els []stream.Element) *Source {
	s := New(name, len(els), func(i int) stream.Element { return els[i] }, FixedRate{}, nil)
	s.preserveTS = true
	return s
}

// UniformKeys returns a Gen drawing Key uniformly from [lo, hi] with Val
// fixed to 1, seeded deterministically — the element model of the §6.3
// join experiment.
func UniformKeys(lo, hi int64, seed uint64) Gen {
	if hi < lo {
		panic("workload: UniformKeys with hi < lo")
	}
	rng := xrand.New(seed)
	span := hi - lo + 1
	return func(int) stream.Element {
		return stream.Element{Key: lo + rng.Int64n(span), Val: 1}
	}
}

// ZipfKeys returns a Gen drawing Key Zipf-distributed over [0, n) with
// exponent sexp, Val fixed to 1.
func ZipfKeys(n int, sexp float64, seed uint64) Gen {
	z := xrand.NewZipf(xrand.New(seed), n, sexp)
	return func(int) stream.Element {
		return stream.Element{Key: int64(z.Next()), Val: 1}
	}
}

// SeqKeys returns a Gen with Key = element index and Val = 1; useful when
// tests need full determinism.
func SeqKeys() Gen {
	return func(i int) stream.Element { return stream.Element{Key: int64(i), Val: 1} }
}
