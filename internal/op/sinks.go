package op

import (
	"sync"
	"sync/atomic"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// Collector is a terminal sink that stores every element it receives. It
// is safe for concurrent producers, so it can terminate graphs running
// under any scheduling mode.
type Collector struct {
	mu   sync.Mutex
	els  []stream.Element
	done chan struct{}
	ins  int
	seen int
	once sync.Once
}

// NewCollector returns a collector expecting Done on ins input ports.
func NewCollector(ins int) *Collector {
	if ins < 1 {
		panic("op: collector needs at least one input")
	}
	return &Collector{done: make(chan struct{}), ins: ins}
}

// ProcessBatch implements Sink: one lock acquisition per burst.
func (c *Collector) ProcessBatch(_ int, es []stream.Element) {
	c.mu.Lock()
	c.els = append(c.els, es...)
	c.mu.Unlock()
}

// Done implements Sink.
func (c *Collector) Done(int) {
	c.mu.Lock()
	c.seen++
	fin := c.seen >= c.ins
	c.mu.Unlock()
	if fin {
		c.once.Do(func() { close(c.done) })
	}
}

// Wait blocks until every input port has signaled Done.
func (c *Collector) Wait() { <-c.done }

// Elements returns a copy of everything collected so far.
func (c *Collector) Elements() []stream.Element {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stream.Element, len(c.els))
	copy(out, c.els)
	return out
}

// Len returns the number of collected elements.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.els)
}

// Counter is a terminal sink that counts elements, optionally recording the
// cumulative count into a time series (the "number of results" curve of
// Figure 10). Recording every recordEvery-th element bounds the series size
// at high rates.
type Counter struct {
	n           atomic.Uint64
	done        chan struct{}
	ins         int32
	seen        atomic.Int32
	once        sync.Once
	series      *stats.Series
	now         func() int64
	recordEvery uint64
}

// NewCounter returns a counting sink expecting Done on ins ports.
func NewCounter(ins int) *Counter {
	if ins < 1 {
		panic("op: counter needs at least one input")
	}
	return &Counter{done: make(chan struct{}), ins: int32(ins)}
}

// RecordInto makes the counter log (now, cumulative count) into series on
// every every-th element and at Done. Call before processing starts.
func (c *Counter) RecordInto(series *stats.Series, now func() int64, every uint64) {
	if every == 0 {
		every = 1
	}
	c.series, c.now, c.recordEvery = series, now, every
}

// ProcessBatch implements Sink: one counter add per burst. When a
// series is attached and the burst crosses a recording boundary, one point
// is logged at the post-burst count — the curve keeps its recordEvery
// resolution, coarsened to batch granularity within a burst.
func (c *Counter) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	n := c.n.Add(uint64(len(es)))
	if c.series != nil && n/c.recordEvery != (n-uint64(len(es)))/c.recordEvery {
		c.series.Add(c.now(), float64(n))
	}
}

// Done implements Sink.
func (c *Counter) Done(int) {
	if c.seen.Add(1) >= c.ins {
		c.once.Do(func() {
			if c.series != nil {
				c.series.Add(c.now(), float64(c.n.Load()))
			}
			close(c.done)
		})
	}
}

// Wait blocks until every input port has signaled Done.
func (c *Counter) Wait() { <-c.done }

// Count returns the number of elements seen so far.
func (c *Counter) Count() uint64 { return c.n.Load() }

// LatencySink measures per-element latency as (arrival wall time − element
// event time) and folds it into a reservoir for quantile reporting. It
// assumes event timestamps share the engine clock's epoch.
type LatencySink struct {
	res  *stats.Reservoir
	now  func() int64
	done chan struct{}
	ins  int32
	seen atomic.Int32
	once sync.Once
}

// NewLatencySink returns a latency-measuring sink with a reservoir of the
// given size.
func NewLatencySink(ins, size int, seed uint64, now func() int64) *LatencySink {
	if ins < 1 {
		panic("op: latency sink needs at least one input")
	}
	return &LatencySink{res: stats.NewReservoir(size, seed), now: now, done: make(chan struct{}), ins: int32(ins)}
}

// ProcessBatch implements Sink: the arrival instant is read once for
// the burst — the elements genuinely arrived together, so one clock read
// is the honest timestamp for all of them.
func (l *LatencySink) ProcessBatch(_ int, es []stream.Element) {
	now := l.now()
	for _, e := range es {
		l.res.Observe(float64(now - e.TS))
	}
}

// Done implements Sink.
func (l *LatencySink) Done(int) {
	if l.seen.Add(1) >= l.ins {
		l.once.Do(func() { close(l.done) })
	}
}

// Wait blocks until every input port has signaled Done.
func (l *LatencySink) Wait() { <-l.done }

// Quantile returns the q-quantile of observed latencies in nanoseconds.
func (l *LatencySink) Quantile(q float64) float64 { return l.res.Quantile(q) }

// Count returns the number of latency observations.
func (l *LatencySink) Count() uint64 { return l.res.Count() }

// Null discards everything; handy as a load sink in benches.
type Null struct {
	done chan struct{}
	ins  int32
	seen atomic.Int32
	once sync.Once
}

// NewNull returns a discarding sink expecting Done on ins ports.
func NewNull(ins int) *Null {
	if ins < 1 {
		panic("op: null sink needs at least one input")
	}
	return &Null{done: make(chan struct{}), ins: int32(ins)}
}

// ProcessBatch implements Sink.
func (n *Null) ProcessBatch(int, []stream.Element) {}

// Done implements Sink.
func (n *Null) Done(int) {
	if n.seen.Add(1) >= n.ins {
		n.once.Do(func() { close(n.done) })
	}
}

// Wait blocks until every input port has signaled Done.
func (n *Null) Wait() { <-n.done }
