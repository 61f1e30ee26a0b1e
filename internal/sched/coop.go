// Cooperative blocking: the machinery that makes bounded decoupling
// queues safe under every configuration of the three-level scheduler.
//
// The hazard (ROADMAP's bounded-queue deadlock): an executor that blocks
// pushing into a full downstream queue used to keep both its level-3 TS
// run permit and the deployment's world read lock while parked. With the
// permit held, the consumer partition that would free the space starves
// in TS.Acquire (fatal at MaxConcurrent=1, the GOMAXPROCS=1 repro); with
// the read lock held, a splice's world write lock can never be taken.
//
// The fix is a per-queue queue.WaitHook wired at deploy time to the
// queue's producing side. Before a producer parks on q.space the hook
// releases what the rest of the engine needs to make progress, names
// the signal that aborts the park, and reacquires after the park.
//
//   - An executor releases its TS permit and world read lock; its stop
//     channel aborts the park.
//   - A source goroutine (direct or fused) releases nothing: it parks
//     holding its world read lock, so a splice can never run inside its
//     fan-out (where it would rewrite an operator's subscription list
//     under a running loop). The deployment's quiesce channel aborts the
//     park.
//   - The splice goroutine never parks; everything else is halted or
//     quiesced, so nothing could wake it.
//
// # Lock ordering
//
// The engine's documented — and, on the yield paths, assertion-enforced —
// acquisition order is
//
//	world RLock  →  VO gate  →  TS run permit  →  queue mutex
//
// with one invariant on top: a thread must never WAIT (park on a full
// queue, or block on a VO gate) while holding a TS run permit — it
// releases the permit first and reacquires it afterwards. Reacquisition
// respects the same order: the world read lock is retaken first, then the
// permit (honoring stop, so a halting deployment can always collect its
// executors), and only then the queue mutex.
//
// The world writer is the splice transaction (Deployment.Splice), and it
// first unwinds every reader that could be waiting: it halts the
// executors (stop aborts their parks and gate waits), then closes the
// quiesce channel (aborting every source park, whose push then completes
// past the bound), and only then takes world.Lock, re-arming the channel
// under it. That is what makes the mixed wait-for graph acyclic. Waiting
// while holding a VO gate is permitted (the gate serializes entry into
// one partition and nothing the consumer side needs is behind it), and a
// source may block on a gate with its read lock held: the holder is an
// executor or a source inside a delivery, both of which the splice aborts
// before it needs the write lock, and the writer itself never takes
// gates. Executors still select on stop around a gate wait and release
// their permit for it, since the holder may be parked for a while.
package sched

import (
	"bytes"
	"runtime"
	"strconv"

	"github.com/dsms/hmts/internal/queue"
)

// goid returns the calling goroutine's id. It is used only on slow paths
// (parking on a full queue) to discriminate which thread is pushing
// through a partition: the partition's executor, a fused source, or the
// splice. The textual parse is the only portable way to get
// the id; at ~1µs it is noise next to an actual park.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	b := buf[:n]
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[i+1:]
	}
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// Gate serializes entry into a virtual operator that can have more than
// one driver (fused sources, an executor draining entry queues). It is a
// channel-based mutex rather than sync.Mutex so an executor can wait for
// it cooperatively — selecting against its stop signal and releasing its
// TS run permit first, since the holder may itself be parked on
// downstream backpressure for an arbitrary time.
type Gate struct {
	ch chan struct{}
}

// NewGate returns an unlocked gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{}, 1)} }

// Lock acquires the gate, blocking until it is free. Callers must not
// hold a TS permit across the wait; source threads may hold the world
// read lock (see the lock ordering above).
func (g *Gate) Lock() { g.ch <- struct{}{} }

// TryLock acquires the gate only if it is free.
func (g *Gate) TryLock() bool {
	select {
	case g.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// lockOrStop acquires the gate unless stop closes first; it reports
// whether the gate was acquired.
func (g *Gate) lockOrStop(stop <-chan struct{}) bool {
	select {
	case g.ch <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Unlock releases the gate.
func (g *Gate) Unlock() {
	select {
	case <-g.ch:
	default:
		panic("sched: unlock of unlocked gate")
	}
}

// pushHook is the queue.WaitHook installed on every decoupling queue; one
// instance per queue, bound to the queue's producing side. Yield releases
// whatever the calling thread must not hold while parked and names the
// park's abort signal; Resume reacquires it in the documented order.
type pushHook struct {
	d *Deployment
	// x is the executor of the group that drains the producing partition,
	// nil when only source goroutines push into the queue.
	x *Exec
}

// Yield implements queue.WaitHook.
func (h *pushHook) Yield(q *queue.Queue) (bool, <-chan struct{}) {
	g := goid()
	if h.d.spliceGid.Load() == g {
		// The splice is draining a queue while everything else is halted
		// or quiesced; nobody can free space, so the push must overshoot
		// rather than park.
		return false, nil
	}
	if h.x != nil && h.x.gid.Load() == g {
		return h.x.yieldFor(q)
	}
	// A source goroutine (a direct source producer, or a source fused
	// into the producing partition) is pushing: it holds one world read
	// lock — via srcAdapter — and no TS permit. It parks keeping the read
	// lock, so no splice can run inside its fan-out; a pending splice
	// closes the quiesce channel first, and the push completes past the
	// bound. The read lock makes the field read safe.
	return true, h.d.quiesce
}

// Resume implements queue.WaitHook.
func (h *pushHook) Resume(q *queue.Queue, aborted bool) {
	if h.x != nil && h.x.gid.Load() == goid() {
		h.x.resumeFor(q, aborted)
	}
}
