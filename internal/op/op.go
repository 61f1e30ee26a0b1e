// Package op implements the push-based query operators of the DSMS.
//
// An operator receives elements via ProcessBatch and — this is the paper's
// direct interoperability (DI, §2.4) — forwards results by directly calling
// ProcessBatch on its subscribed successors, so one arriving batch triggers
// a depth-first traversal of the downstream subgraph. No scheduler is
// needed where DI is used; decoupling queues (package queue) end DI at
// chosen edges and hand control to a scheduler.
//
// Concurrency contract: at any instant, at most one goroutine drives a
// given operator's ProcessBatch/Done methods. The engine guarantees this by
// construction — an operator belongs to exactly one partition and each
// partition is executed by one goroutine at a time. Statistics are atomic
// so samplers and planners may read them concurrently.
package op

import (
	"time"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// Sink consumes a stream. ProcessBatch delivers a batch of elements to the
// given input port; Done signals that no more elements will arrive on that
// port (resolving the end-of-stream ambiguity discussed in paper §2.2 out
// of band rather than with sentinel elements). A single element travels as
// a one-element batch.
//
// Contract: how a stream is cut into batches is invisible downstream —
// delivering the same elements in one-element batches or in any other
// split yields the same outputs on each downstream edge in the same
// per-edge order, the same Done propagation and the same In/Out counts.
// The callee must neither retain the slice after returning nor mutate it:
// the same slice is handed to every subscriber of a fan-out and then
// reused by the caller. Batches never span input ports.
type Sink interface {
	ProcessBatch(port int, es []stream.Element)
	Done(port int)
}

// Operator is a query-graph node: a Sink that forwards derived elements to
// subscribed downstream sinks.
type Operator interface {
	Sink
	// Name returns the operator's display name.
	Name() string
	// Stats returns the operator's runtime statistics.
	Stats() *stats.OpStats
	// Subscribe attaches s as a downstream consumer; elements are
	// delivered to s.ProcessBatch(port, ...).
	Subscribe(s Sink, port int)
	// Unsubscribe detaches a previously subscribed (s, port) edge. It is
	// how the engine splices queues in and out of the graph at runtime.
	Unsubscribe(s Sink, port int)
	// Ins returns the number of input ports the operator expects Done on
	// before it closes.
	Ins() int
}

// Source produces a stream autonomously (paper §2.1: sources only deliver
// data). Run drives elements into out at the source's own pace and calls
// out.Done(port) when exhausted or stopped. Implementations live in package
// workload.
type Source interface {
	// Run blocks until the source is exhausted or stopped.
	Run(out Sink, port int)
	// Stop asks a running source to finish early; it is safe to call
	// concurrently with Run and more than once.
	Stop()
	// Name returns the source's display name.
	Name() string
}

// meterEvery controls sampled cost metering: the batch that carries an
// operator's arrival count past meterEvery elements is timed and recorded
// as its amortized per-element cost, and the count restarts. A stream of
// one-element batches is thus timed 1 batch in 16, and a batch of 16 or
// more elements every time — the two clock reads amortize over at least
// meterEvery elements either way, while c(v) still converges quickly.
const meterEvery = 16

var epoch = time.Now()

// monotime returns nanoseconds since package initialization on the
// monotonic clock.
func monotime() int64 { return int64(time.Since(epoch)) }
