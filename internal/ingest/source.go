package ingest

import (
	"sync"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// Source adapts a Buffer to op.Source: the engine runs one goroutine per
// source, and that goroutine drains the ingress buffer into the deployed
// graph in bursts, one ProcessBatch call per burst. Producers keep calling
// Push from any goroutine — network handlers, for hmtsd — while the engine
// consumes.
//
// Beyond op.Source it carries the shed override used by the adaptive
// controller: Shed(true) forces DropNewest regardless of the configured
// policy, Shed(false) restores it. SetPolicy changes the configured policy
// and is preserved across a shed cycle.
type Source struct {
	name  string
	buf   *Buffer
	batch int

	stop     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	base Policy
	shed bool
}

// NewSource returns an external source over a fresh buffer of the given
// capacity and overload policy, draining in bursts of up to batch
// elements (batch < 1 selects 256).
func NewSource(name string, capacity int, policy Policy, batch int) *Source {
	if batch < 1 {
		batch = 256
	}
	return &Source{
		name:  name,
		buf:   NewBuffer(capacity, policy),
		batch: batch,
		stop:  make(chan struct{}),
		base:  policy,
	}
}

// Name implements op.Source.
func (s *Source) Name() string { return s.name }

// Push offers one element to the ingress buffer; see Buffer.Push.
func (s *Source) Push(e stream.Element) bool { return s.buf.Push(e) }

// PushBatch offers a burst; see Buffer.PushBatch.
func (s *Source) PushBatch(es []stream.Element) int { return s.buf.PushBatch(es) }

// Close signals end of stream: buffered elements drain, then the engine
// sees Done. Idempotent.
func (s *Source) Close() { s.buf.Close() }

// SetPolicy changes the configured overload policy. While a shed override
// is engaged the new policy takes effect once the override releases.
func (s *Source) SetPolicy(p Policy) {
	s.mu.Lock()
	s.base = p
	if !s.shed {
		s.buf.SetPolicy(p)
	}
	s.mu.Unlock()
}

// Shed engages (true) or releases (false) the emergency DropNewest
// override. Idempotent in both directions.
func (s *Source) Shed(on bool) {
	s.mu.Lock()
	if on != s.shed {
		s.shed = on
		if on {
			s.buf.SetPolicy(DropNewest)
		} else {
			s.buf.SetPolicy(s.base)
		}
	}
	s.mu.Unlock()
}

// Shedding reports whether the shed override is engaged.
func (s *Source) Shedding() bool {
	s.mu.Lock()
	on := s.shed
	s.mu.Unlock()
	return on
}

// IngestStats snapshots the buffer counters; the engine surfaces them
// through Metrics.
func (s *Source) IngestStats() Stats {
	st := s.buf.Stats()
	st.Shedding = s.Shedding()
	return st
}

// Run implements op.Source: it drains the ingress buffer into out until
// the buffer is closed and empty, or Stop is called.
func (s *Source) Run(out op.Sink, port int) {
	defer out.Done(port)
	scratch := make([]stream.Element, s.batch)
	for {
		n, open := s.buf.PopWait(scratch, s.stop)
		if n > 0 {
			out.ProcessBatch(port, scratch[:n])
		}
		if !open {
			return
		}
	}
}

// Stop implements op.Source: the buffer is closed (releasing any blocked
// producers) and Run returns at its next iteration without draining the
// remainder — Stop is the abort path, Close the graceful one.
func (s *Source) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.buf.Close()
}
