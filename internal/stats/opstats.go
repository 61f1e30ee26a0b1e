package stats

import (
	"math"
	"sync/atomic"
)

// noArrival is the lastIn sentinel before the first RecordInBatch. A real
// event time of MinInt64 would be mistaken for it, but interarrival math
// is meaningless that far outside the epoch anyway.
const noArrival = math.MinInt64

// OpStats tracks what one operator did: element counts, busy time, and the
// derived per-element cost and input interarrival estimates. Operators can
// have several concurrent producers (every upstream VO enqueues into the
// operator's queue and records the arrival), and readers (the memory
// sampler, the placement heuristic, metric dumps) run alongside, so the
// counters are atomics and the estimators lock internally. The previous
// arrival time is one packed atomic word exchanged with Swap: each arrival
// consumes exactly one predecessor, so concurrent producers chain gaps
// instead of double-counting the first arrival or tearing d(v) across a
// separate have-flag.
type OpStats struct {
	in      atomic.Uint64 // elements received
	out     atomic.Uint64 // elements emitted
	busyNS  atomic.Int64  // cumulative processing time
	lastIn  atomic.Int64  // event time of previous arrival (noArrival before the first), for d(v)
	costNS  *EWMA         // smoothed per-element processing cost, c(v)
	interNS *EWMA         // smoothed input interarrival time, d(v)
}

// NewOpStats returns a ready OpStats.
func NewOpStats() *OpStats {
	s := &OpStats{
		costNS:  NewEWMA(0.05),
		interNS: NewEWMA(0.05),
	}
	s.lastIn.Store(noArrival)
	return s
}

// RecordInBatch notes n arriving elements spanning event times firstTS to
// lastTS in one call. The interarrival estimator d(v) receives one
// observation, the mean gap across the batch relative to the previous
// arrival, so a burst of n elements costs one EWMA update instead of n; a
// one-element batch observes exactly its gap to the previous arrival.
func (s *OpStats) RecordInBatch(firstTS, lastTS int64, n int) {
	if n <= 0 {
		return
	}
	s.in.Add(uint64(n))
	prev := s.lastIn.Swap(lastTS)
	switch {
	case prev != noArrival:
		if lastTS < prev {
			return
		}
		gap := float64(lastTS - prev)
		if n > 1 {
			gap /= float64(n)
		}
		s.interNS.Observe(gap)
	case n > 1 && lastTS >= firstTS:
		s.interNS.Observe(float64(lastTS-firstTS) / float64(n-1))
	}
}

// RecordOut notes n emitted elements.
func (s *OpStats) RecordOut(n int) { s.out.Add(uint64(n)) }

// RecordBusyBatch adds d nanoseconds of processing time spanning n
// elements. The cost estimator c(v) stays per-element: it receives one
// observation of d/n, so a metered batch is one EWMA update whose value is
// the amortized cost the capacity model cap(P) = d(P) − c(P) is defined
// over.
func (s *OpStats) RecordBusyBatch(d int64, n int) {
	if n <= 0 {
		return
	}
	s.busyNS.Add(d)
	s.costNS.Observe(float64(d) / float64(n))
}

// In returns the number of elements received.
func (s *OpStats) In() uint64 { return s.in.Load() }

// Out returns the number of elements emitted.
func (s *OpStats) Out() uint64 { return s.out.Load() }

// BusyNS returns cumulative processing time in nanoseconds.
func (s *OpStats) BusyNS() int64 { return s.busyNS.Load() }

// CostNS returns the smoothed per-element processing cost c(v) in
// nanoseconds, or 0 before any measurement.
func (s *OpStats) CostNS() float64 { return s.costNS.Value() }

// InterarrivalNS returns the smoothed input interarrival time d(v) in
// nanoseconds, or 0 before two arrivals.
func (s *OpStats) InterarrivalNS() float64 { return s.interNS.Value() }

// Selectivity returns out/in, the operator's observed selectivity, or 1
// before any input (the neutral assumption for planning).
func (s *OpStats) Selectivity() float64 {
	in := s.in.Load()
	if in == 0 {
		return 1
	}
	return float64(s.out.Load()) / float64(in)
}
