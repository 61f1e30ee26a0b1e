// Package queue implements the decoupling queue of the paper, modeled — as
// in §2.4 — as an operator in its own right. A queue placed on an edge ends
// direct interoperability there: upstream operators enqueue and return
// immediately, and a scheduler later drains the queue into the downstream
// subgraph. Queues have no semantic effect; they exist purely so that
// threads can be assigned to the subgraphs between them.
package queue

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// WaitHook lets the scheduler cooperate with blocking pushes. When a
// producer must park on a full bounded queue, parking while holding
// scheduler resources (a level-3 run permit, the deployment's structural
// read lock) can starve the very consumer that would free space. The hook
// is consulted only on the park path — the non-full fast path pays a single
// nil check — and lets the owner release those resources first.
//
// Contract: Yield is called without the queue lock immediately before the
// producer would park. It returns park=false to veto parking entirely (the
// push then proceeds past the bound — used when producer and consumer are
// the same thread, where parking can never be woken); in that case Resume
// is not called. With park=true the producer blocks on space/poison/abort;
// abort (may be nil) is an additional wake channel — typically the owner's
// stop signal — and a wake through it also forces the push past the bound
// so no element is lost when an executor is halted mid-push: the whole
// remaining batch is enqueued. The overshoot is metered by Overshoot.
// After the park ends for any reason, Resume is called exactly once (same
// goroutine) to reacquire whatever Yield released; aborted reports an
// abort wake.
type WaitHook interface {
	Yield(q *Queue) (park bool, abort <-chan struct{})
	Resume(q *Queue, aborted bool)
}

// Queue is a FIFO buffer between graph partitions. The upstream side is an
// op.Sink (ProcessBatch/Done, safe for concurrent producers). The
// downstream side is drained in batches by exactly one scheduler at a time
// via DrainBatch, which pushes dequeued elements into the subscribed sinks
// using DI.
//
// A bound of 0 means unbounded; a positive bound blocks producers when the
// queue is full, providing backpressure.
type Queue struct {
	name string
	st   *stats.OpStats

	mu        sync.Mutex
	buf       []stream.Element
	head, n   int
	bound     int
	producers int
	doneProds int
	outClosed bool
	wake      chan struct{} // closed+replaced when work appears or input closes
	space     chan struct{} // closed+replaced when room appears (bounded only)

	subs   []sub
	notify func()
	poison chan struct{}
	hook   WaitHook // consulted (outside mu) before parking on a full queue

	// Gauges: the queue state strategies and samplers consult, published
	// atomically inside the locked mutation sections so that readers
	// (FrontTS, Len, HasWork, InputClosed, Closed) never touch mu. The
	// seqlock pairs frontTS with the length so a reader cannot observe a
	// front timestamp from a different occupancy state: writers bump gSeq
	// to odd, store the fields, and bump it back to even; readers retry
	// while the sequence is odd or changed underneath them.
	gSeq     atomic.Uint64
	gFrontTS atomic.Int64
	gLen     atomic.Int64
	gFlags   atomic.Uint32

	enq, deq  atomic.Uint64
	maxLen    atomic.Int64
	dropped   atomic.Uint64
	overshoot atomic.Uint64

	// Backpressure stall counters: how often a producer parked on a full
	// queue and the cumulative nanoseconds spent parked (including the
	// hook's resume work). They make stalls visible to metrics consumers
	// and the adapt estimators instead of silent.
	fullBlocks atomic.Uint64
	blockedNS  atomic.Int64
}

// Gauge flag bits.
const (
	gInClosed  = 1 << iota // every producer has signaled Done
	gOutClosed             // buffer drained and Done propagated downstream
)

type sub struct {
	sink op.Sink
	port int
}

// New returns a queue with the given bound (0 = unbounded) expecting Done
// from one producer; use SetProducers for merged inputs.
func New(name string, bound int) *Queue {
	if bound < 0 {
		panic("queue: negative bound")
	}
	return &Queue{
		name:      name,
		st:        stats.NewOpStats(),
		bound:     bound,
		producers: 1,
		wake:      make(chan struct{}),
		space:     make(chan struct{}),
		poison:    make(chan struct{}),
		buf:       make([]stream.Element, 16),
	}
}

// Poison aborts the queue for shutdown: producers blocked on a full
// bounded queue are released (their elements are dropped) and future
// enqueues are dropped too. It is idempotent and used by Deployment.Stop
// so that teardown can never deadlock behind backpressure.
func (q *Queue) Poison() {
	q.mu.Lock()
	select {
	case <-q.poison:
	default:
		close(q.poison)
	}
	q.mu.Unlock()
}

// Dropped returns how many elements were discarded due to poisoning.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// SetWaitHook installs the cooperative-blocking hook consulted before a
// producer parks on a full queue. Passing nil uninstalls. The hook is
// snapshotted per park, so a producer already parked when the hook changes
// finishes its park against the hook it yielded through.
func (q *Queue) SetWaitHook(h WaitHook) {
	q.mu.Lock()
	q.hook = h
	q.mu.Unlock()
}

// FullBlocks returns how many times a producer parked on this queue full.
func (q *Queue) FullBlocks() uint64 { return q.fullBlocks.Load() }

// BlockedNS returns the cumulative nanoseconds producers spent parked on
// this queue full.
func (q *Queue) BlockedNS() int64 { return q.blockedNS.Load() }

// Overshoot returns how many elements were enqueued past the bound: by a
// hook veto (producer and consumer are the same thread), by an abort wake
// (a producer halted mid-push force-flushes its in-flight element — or,
// on the batch path, its whole remaining batch), or by teardown paths
// that must not park. It is the observable measure of how soft the bound
// has been in practice; FullBlocks/BlockedNS count only actual parks, so
// without this counter veto/abort bound violations would be invisible to
// metrics.
func (q *Queue) Overshoot() uint64 { return q.overshoot.Load() }

// waitSpace parks the calling producer until space frees, the queue is
// poisoned, or the hook's abort channel fires, invoking the hook around
// the park and metering the stall. It reports whether the push must now
// proceed past the bound (hook veto or abort wake). The caller holds
// neither mu nor any queue lock; it re-checks poison under mu afterwards.
func (q *Queue) waitSpace(space <-chan struct{}, hook WaitHook) (force bool) {
	park := true
	var abort <-chan struct{}
	if hook != nil {
		park, abort = hook.Yield(q)
		if !park {
			// The producer must not park (it is the thread that would
			// have to free the space itself); overshoot the bound instead
			// of self-deadlocking.
			return true
		}
	}
	q.fullBlocks.Add(1)
	t0 := time.Now()
	aborted := false
	select {
	case <-space:
	case <-q.poison:
	case <-abort: // nil when no hook or no abort channel: never fires
		aborted = true
	}
	if hook != nil {
		hook.Resume(q, aborted)
	}
	q.blockedNS.Add(int64(time.Since(t0)))
	return aborted
}

// Name returns the queue's display name.
func (q *Queue) Name() string { return q.name }

// Stats returns the queue's runtime statistics; its interarrival estimate
// is the input rate of the partition the queue feeds.
func (q *Queue) Stats() *stats.OpStats { return q.st }

// Ins implements op.Operator; data ports are collapsed, so this is 1.
func (q *Queue) Ins() int { return 1 }

// SetProducers declares how many producers will call Done before the
// queue's input counts as closed. Call before processing starts.
func (q *Queue) SetProducers(n int) {
	if n < 1 {
		panic("queue: need at least one producer")
	}
	q.mu.Lock()
	q.producers = n
	q.publishLocked()
	q.mu.Unlock()
}

// Subscribe attaches a downstream sink; DrainBatch delivers each drained
// burst into it in one call, so the burst enters the downstream DI chain
// whole.
func (q *Queue) Subscribe(s op.Sink, port int) {
	q.subs = append(q.subs, sub{sink: s, port: port})
}

// Unsubscribe detaches a previously subscribed edge.
func (q *Queue) Unsubscribe(s op.Sink, port int) {
	for i, e := range q.subs {
		if e.sink == s && e.port == port {
			q.subs = append(q.subs[:i], q.subs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("queue: Unsubscribe of unknown edge from %q", q.name))
}

// SetNotify registers a callback invoked (outside the queue lock) after
// every mutation a scheduler could care about: an enqueue — including into
// a non-empty queue, so length-ordered strategies stay fresh — and the
// input closing. The executor owning this queue's partition installs a
// closure that marks the unit dirty and wakes the executor; because the
// callback identifies the queue, a shared wake channel no longer needs an
// anonymous ping per event. Passing nil unregisters. The gauges are always
// published before the callback fires, so a consumer that reads them in
// response to a notification observes at least the notifying event.
func (q *Queue) SetNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
}

// ping invokes a notify callback snapshot taken under mu.
func (q *Queue) ping(fn func()) {
	if fn != nil {
		fn()
	}
}

// publishLocked refreshes the atomic gauges from the buffer state. Caller
// holds mu; the seqlock makes the multi-word update appear atomic to the
// lock-free readers.
func (q *Queue) publishLocked() {
	var ts int64
	if q.n > 0 {
		ts = q.buf[q.head].TS
	}
	var flags uint32
	if q.doneProds >= q.producers {
		flags |= gInClosed
	}
	if q.outClosed {
		flags |= gOutClosed
	}
	q.gSeq.Add(1) // odd: readers hold off
	q.gFrontTS.Store(ts)
	q.gLen.Store(int64(q.n))
	q.gFlags.Store(flags)
	q.gSeq.Add(1) // even: stable again
}

// loadGauges returns a coherent (frontTS, length, flags) snapshot without
// taking mu. frontTS is meaningful only when n > 0.
func (q *Queue) loadGauges() (ts int64, n int, flags uint32) {
	for {
		s := q.gSeq.Load()
		if s&1 == 0 {
			ts = q.gFrontTS.Load()
			n = int(q.gLen.Load())
			flags = q.gFlags.Load()
			if q.gSeq.Load() == s {
				return ts, n, flags
			}
		}
		// A writer is mid-publish; writers hold mu for a handful of
		// instructions, so yield rather than burn the (possibly single)
		// CPU it needs to finish.
		runtime.Gosched()
	}
}

// FrontTS returns the event timestamp of the oldest buffered element, or
// false if the queue is empty. FIFO strategies use it to process elements
// in global arrival order. It reads the published gauges and never blocks
// on the queue lock.
func (q *Queue) FrontTS() (int64, bool) {
	ts, n, _ := q.loadGauges()
	if n == 0 {
		return 0, false
	}
	return ts, true
}

// Len returns the number of buffered elements; it is the gauge the memory
// sampler reads for Figure 9. Lock-free.
func (q *Queue) Len() int { return int(q.gLen.Load()) }

// Gauges returns one coherent lock-free snapshot of everything a
// scheduling strategy consults: the front element's event timestamp
// (meaningful only when n > 0), the buffered length, and the input/output
// closed flags. Strategies prefer this over separate FrontTS/Len/Closed
// calls — one seqlock round instead of three.
func (q *Queue) Gauges() (frontTS int64, n int, inClosed, outClosed bool) {
	ts, n, flags := q.loadGauges()
	return ts, n, flags&gInClosed != 0, flags&gOutClosed != 0
}

// MaxLen returns the high-water mark of the buffer.
func (q *Queue) MaxLen() int { return int(q.maxLen.Load()) }

// Enqueued returns the total number of elements ever enqueued.
func (q *Queue) Enqueued() uint64 { return q.enq.Load() }

// Dequeued returns the total number of elements ever dequeued.
func (q *Queue) Dequeued() uint64 { return q.deq.Load() }

// InputClosed reports whether every producer has signaled Done. Lock-free.
func (q *Queue) InputClosed() bool {
	return q.gFlags.Load()&gInClosed != 0
}

// Closed reports whether the queue is fully finished: input closed, buffer
// drained, and Done propagated downstream. Lock-free.
func (q *Queue) Closed() bool {
	return q.gFlags.Load()&gOutClosed != 0
}

// ProcessBatch implements op.Sink: it enqueues the whole burst with one
// lock acquisition per contiguous run of available space — a single one in
// the common (unbounded or non-full) case — instead of one per element,
// and coalesces the drainer wakeup into at most one signal per run. On a
// full bounded queue it enqueues what fits, blocks for space (a registered
// WaitHook is invoked around the park so the producer can release
// scheduler resources first), and continues; poisoning drops the
// not-yet-enqueued remainder, while a hook veto or abort enqueues the
// entire remainder past the bound — an overshoot of up to len(es)
// elements, so a batch producer halted mid-push loses nothing. Overshot elements are counted in Overshoot so
// the bound violation is visible to metrics. Element order within the
// batch is preserved. Enqueueing after all producers signaled Done panics
// — that is always an engine bug.
func (q *Queue) ProcessBatch(_ int, es []stream.Element) {
	force := false
	for len(es) > 0 {
		q.mu.Lock()
		select {
		case <-q.poison:
			q.mu.Unlock()
			q.dropped.Add(uint64(len(es)))
			return
		default:
		}
		if !force && q.bound > 0 && q.n >= q.bound {
			ch := q.space
			hook := q.hook
			q.mu.Unlock()
			force = q.waitSpace(ch, hook)
			continue
		}
		if q.doneProds >= q.producers {
			q.mu.Unlock()
			panic(fmt.Sprintf("queue: enqueue into closed queue %q", q.name))
		}
		take := len(es)
		if !force && q.bound > 0 && take > q.bound-q.n {
			take = q.bound - q.n
		}
		if over := q.n + take - q.bound; q.bound > 0 && over > 0 {
			if over > take {
				over = take
			}
			q.overshoot.Add(uint64(over))
		}
		wasEmpty := q.n == 0
		for _, e := range es[:take] {
			q.push(e)
		}
		if int64(q.n) > q.maxLen.Load() {
			q.maxLen.Store(int64(q.n))
		}
		q.publishLocked()
		var wake chan struct{}
		if wasEmpty {
			wake = q.wake
			q.wake = make(chan struct{})
		}
		notify := q.notify
		q.mu.Unlock()

		q.enq.Add(uint64(take))
		q.st.RecordInBatch(es[0].TS, es[take-1].TS, take)
		if wake != nil {
			close(wake)
		}
		q.ping(notify)
		es = es[take:]
	}
}

// Done implements op.Sink: it counts producer end-of-stream signals. The
// downstream Done is not sent here — it is sent by the draining scheduler
// once the buffer is empty, preserving element/EOS ordering.
func (q *Queue) Done(int) {
	q.mu.Lock()
	q.doneProds++
	q.publishLocked()
	var wake chan struct{}
	var notify func()
	if q.doneProds >= q.producers {
		wake = q.wake
		q.wake = make(chan struct{})
		notify = q.notify
	}
	q.mu.Unlock()
	if wake != nil {
		close(wake)
	}
	q.ping(notify)
}

// push appends to the ring buffer, growing it as needed. Caller holds mu.
func (q *Queue) push(e stream.Element) {
	if q.n == len(q.buf) {
		bigger := make([]stream.Element, 2*len(q.buf))
		m := copy(bigger, q.buf[q.head:])
		copy(bigger[m:], q.buf[:q.head])
		q.buf = bigger
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
}

// DrainBatch dequeues up to max elements (bounded also by len(scratch))
// with a single lock acquisition: the elements are copied out of the ring
// into the caller-owned scratch slice under the lock, and delivered to the
// subscribers outside it. The space-channel backpressure wakeup is
// coalesced into one signal per batch, and the queue's output counter is
// bumped once via the bulk stats path. It reports how many elements were
// delivered and whether the queue can still yield work in the future (open
// == false exactly once the queue has closed downstream); when the batch
// empties the buffer with the input already closed, the final Done is
// propagated immediately instead of costing the executor one more wakeup.
//
// Scratch ownership: the slice is only written between the call and the
// return; the queue keeps no reference to it, so the caller may reuse it
// for every call. Only one goroutine may call DrainBatch at a time; that is
// the scheduler owning this queue's partition.
func (q *Queue) DrainBatch(scratch []stream.Element, max int) (n int, open bool) {
	if max <= 0 {
		max = 1
	}
	if max > len(scratch) {
		max = len(scratch)
	}
	q.mu.Lock()
	if q.n == 0 || max == 0 {
		if q.n == 0 && q.doneProds >= q.producers && !q.outClosed {
			q.outClosed = true
			q.publishLocked()
			q.mu.Unlock()
			for _, s := range q.subs {
				s.sink.Done(s.port)
			}
			return 0, false
		}
		closed := q.outClosed
		q.mu.Unlock()
		return 0, !closed
	}
	take := max
	if take > q.n {
		take = q.n
	}
	// Copy out of the ring in at most two contiguous chunks, clearing the
	// vacated slots so the buffer does not pin payloads.
	first := len(q.buf) - q.head
	if first > take {
		first = take
	}
	copy(scratch, q.buf[q.head:q.head+first])
	copy(scratch[first:take], q.buf[:take-first])
	clear(q.buf[q.head : q.head+first])
	clear(q.buf[:take-first])
	wasFull := q.bound > 0 && q.n >= q.bound
	q.head = (q.head + take) % len(q.buf)
	q.n -= take
	var space chan struct{}
	if wasFull && q.n < q.bound {
		space = q.space
		q.space = make(chan struct{})
	}
	closing := q.n == 0 && q.doneProds >= q.producers && !q.outClosed
	if closing {
		q.outClosed = true
	}
	q.publishLocked()
	q.mu.Unlock()

	if space != nil {
		close(space)
	}
	q.deq.Add(uint64(take))
	q.st.RecordOut(take)
	for _, s := range q.subs {
		// The whole batch flows into the downstream DI chain in one call;
		// subscribers must not retain or mutate the slice (the op.Sink
		// contract), since it is shared across the fan-out and reused by
		// the caller.
		s.sink.ProcessBatch(s.port, scratch[:take])
	}
	if closing {
		for _, s := range q.subs {
			s.sink.Done(s.port)
		}
		return take, false
	}
	return take, true
}

// HasWork reports whether a DrainBatch call would deliver at least one element
// or propagate the final Done right now. It reads the published gauges and
// never blocks on the queue lock, so strategies can consult every unit per
// decision without serializing against producers.
func (q *Queue) HasWork() bool {
	_, n, flags := q.loadGauges()
	if n > 0 {
		return true
	}
	return flags&gInClosed != 0 && flags&gOutClosed == 0
}

// WaitWork blocks until the queue has work (elements buffered, or a final
// Done to propagate) or stop is closed. It returns false when the queue is
// finished or the wait was aborted via stop, true when work is available.
func (q *Queue) WaitWork(stop <-chan struct{}) bool {
	for {
		q.mu.Lock()
		if q.n > 0 || (q.doneProds >= q.producers && !q.outClosed) {
			q.mu.Unlock()
			return true
		}
		if q.outClosed {
			q.mu.Unlock()
			return false
		}
		ch := q.wake
		q.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return false
		}
	}
}
