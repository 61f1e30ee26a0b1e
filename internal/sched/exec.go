package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Exec is a level-2 partition executor: one goroutine that drains a group
// of queues under a strategy, exactly like a small graph-threaded
// scheduler over its partition (paper §4.2.2). With a TS attached it
// cooperates on level 3, running only while it holds a run permit.
//
// Work discovery uses the dirty-unit protocol: every queue's notify
// callback marks its unit dirty (a CAS-guarded flag) and, on the false→
// true transition, pushes the unit's index onto the shared notify channel.
// The executor consumes indices, clears the flag, and feeds the strategy's
// incremental index via Update — so one queue event costs one O(log n)
// index fix instead of an O(n) rescan of every unit, and an idle executor
// learns exactly which unit woke it. The channel holds one slot per unit;
// the dedup flag guarantees at most one in-flight token per unit, so the
// producer-side send can never block.
type Exec struct {
	name    string
	units   []*Unit
	strat   Strategy
	batch   int
	scratch []stream.Element // reused by every DrainBatch; owned by run()
	quantum time.Duration
	ts      *TS
	proc    *Proc
	world   *sync.RWMutex

	notify chan int
	dirty  []atomic.Bool
	// open counts non-closed units; run() exits when it reaches zero,
	// replacing the old O(n) all-closed rescan.
	open atomic.Int32

	// Cooperative-blocking state (see coop.go). gid is the executor
	// goroutine's id, published so the wait hook can tell the executor's
	// own pushes apart from a fused source pushing through the same
	// partition. owns is the set of queues this executor drains: a push
	// into one of them from this executor's own goroutine must never park
	// (producer == consumer), it overshoots the bound instead. permit and
	// holdsWorld are owned by the executor goroutine and back the
	// lock-order assertions on the yield paths.
	gid        atomic.Int64
	owns       map[*queue.Queue]struct{}
	permit     bool
	holdsWorld bool

	launched atomic.Bool
	stop     chan struct{}
	done     chan struct{}

	// onFail receives the panic value if an operator blows up while this
	// executor drives it; the deployment fail-stops the whole graph.
	onFail func(error)

	processed atomic.Uint64
}

// newExec wires an executor over units. A nil ts disables level 3 (the
// executor runs whenever it has work, like plain OTS/GTS threads).
func newExec(name string, units []*Unit, strat Strategy, batch int, quantum time.Duration, ts *TS, prio int, world *sync.RWMutex, onFail func(error)) *Exec {
	if batch < 1 {
		batch = 1
	}
	x := &Exec{
		name:    name,
		units:   units,
		strat:   strat,
		batch:   batch,
		scratch: make([]stream.Element, batch),
		quantum: quantum,
		ts:      ts,
		world:   world,
		notify:  make(chan int, max(len(units), 1)),
		dirty:   make([]atomic.Bool, len(units)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		onFail:  onFail,
	}
	if ts != nil {
		x.proc = &Proc{Name: name}
		x.proc.SetPriority(prio)
	}
	x.owns = make(map[*queue.Queue]struct{}, len(units))
	for _, u := range units {
		x.owns[u.Q] = struct{}{}
	}
	for i, u := range units {
		if !u.closed {
			x.open.Add(1)
		}
		i := i
		u.Q.SetNotify(func() { x.markDirty(i) })
	}
	strat.Init(units)
	return x
}

// markDirty is the queues' notify callback: flag the unit and hand its
// index to the executor exactly once per consumption cycle.
func (x *Exec) markDirty(i int) {
	if !x.dirty[i].Load() && x.dirty[i].CompareAndSwap(false, true) {
		x.notify <- i
	}
}

// applyDirty consumes one dirty token. The flag is cleared before the
// gauges are read, so an event arriving in between re-flags the unit and
// is re-applied later rather than lost.
func (x *Exec) applyDirty(i int) {
	x.dirty[i].Store(false)
	x.strat.Update(i)
}

// drainNotify applies all pending dirty tokens without blocking.
func (x *Exec) drainNotify() {
	for {
		select {
		case i := <-x.notify:
			x.applyDirty(i)
		default:
			return
		}
	}
}

// closeUnit marks a unit finished, removes it from the strategy index and
// decrements the open counter. Idempotent; executor goroutine only.
func (x *Exec) closeUnit(i int) {
	u := x.units[i]
	if !u.closed {
		u.closed = true
		x.open.Add(-1)
		x.strat.Update(i)
	}
}

// Name returns the executor's name.
func (x *Exec) Name() string { return x.name }

// Proc returns the executor's level-3 process handle, or nil without a TS.
func (x *Exec) Proc() *Proc { return x.proc }

// Processed returns the number of elements this executor has drained.
func (x *Exec) Processed() uint64 { return x.processed.Load() }

// start launches the executor goroutine.
func (x *Exec) start() {
	x.launched.Store(true)
	go x.run()
}

// halt asks the executor to exit after its current batch and waits for it.
// An executor that was never started has no goroutine to collect.
func (x *Exec) halt() {
	select {
	case <-x.stop:
	default:
		close(x.stop)
	}
	if x.launched.Load() {
		<-x.done
	}
}

// wait blocks until the executor exits on its own (all units closed).
func (x *Exec) wait() { <-x.done }

func (x *Exec) run() {
	defer close(x.done)
	x.gid.Store(goid())
	for {
		if x.open.Load() == 0 {
			return
		}
		select {
		case <-x.stop:
			return
		default:
		}
		if x.ts != nil {
			if !x.ts.Acquire(x.proc, x.stop) {
				return
			}
			x.permit = true
		}
		idle := x.runSlice()
		// The permit may already be gone: a park on a full downstream
		// queue yields it, and a stop during the park means it was never
		// reacquired (see resumeFor).
		if x.ts != nil && x.permit {
			x.ts.Release(x.proc)
			x.permit = false
		}
		if idle {
			if x.open.Load() == 0 {
				return
			}
			if !x.waitWork() {
				return
			}
		}
	}
}

// runSlice drains units until the quantum expires, stop is requested, or
// no unit is ready; it reports whether it stopped for lack of work.
func (x *Exec) runSlice() bool {
	start := time.Now()
	for {
		select {
		case <-x.stop:
			return false
		default:
		}
		x.world.RLock()
		x.holdsWorld = true
		x.drainNotify()
		i := x.strat.Pick()
		if i < 0 {
			x.holdsWorld = false
			x.world.RUnlock()
			return true
		}
		u := x.units[i]
		n, open, err := x.drain(u)
		if err == nil {
			// Re-index the drained unit from its fresh gauges; closed
			// units are removed below instead.
			if open {
				x.strat.Update(i)
			}
		}
		x.holdsWorld = false
		x.world.RUnlock()
		x.processed.Add(uint64(n))
		if err != nil {
			// An operator downstream of this queue panicked. Contain it:
			// stop draining the poisoned partition and fail-stop the
			// deployment.
			x.closeUnit(i)
			if x.onFail != nil {
				x.onFail(err)
			}
			return false
		}
		if !open {
			x.closeUnit(i)
		}
		if x.quantum > 0 && time.Since(start) >= x.quantum {
			return false
		}
	}
}

// drain runs one batch with gate locking and panic containment. It uses
// the batched transfer path: up to batch elements are copied out of the
// queue under one lock acquisition into the executor's scratch slice and
// delivered downstream outside the queue lock.
func (x *Exec) drain(u *Unit) (n int, open bool, err error) {
	if u.Gate != nil {
		if !x.lockGate(u.Gate) {
			// stop closed while waiting; report the unit untouched and let
			// runSlice observe stop.
			return 0, true, nil
		}
		defer u.Gate.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: operator panic in partition of %s: %v", u.Q.Name(), r)
		}
	}()
	n, open = u.Q.DrainBatch(x.scratch, x.batch)
	return n, open, nil
}

// lockGate acquires a VO entry gate cooperatively: the gate's holder may
// be a fused source that is itself parked on downstream backpressure, so
// waiting for it while holding the TS run permit could starve the very
// partition that would unpark it. If the gate is contended the permit is
// released for the wait and reacquired afterwards; stop aborts the wait.
// It reports whether the gate was acquired.
func (x *Exec) lockGate(g *Gate) bool {
	if g.TryLock() {
		return true
	}
	if x.ts != nil && x.permit {
		x.ts.Release(x.proc)
		x.permit = false
	}
	if !g.lockOrStop(x.stop) {
		return false
	}
	if x.ts != nil && !x.permit {
		if !x.ts.Acquire(x.proc, x.stop) {
			g.Unlock()
			return false
		}
		x.permit = true
	}
	return true
}

// yieldFor is the executor half of the wait hook (see coop.go): called on
// the executor's own goroutine when a push into downstream queue q must
// park for space. It releases the TS run permit and the world read lock —
// everything the consumer partition and a pending splice need — and
// arms the executor's stop channel as the park's abort signal so halting
// never hangs behind backpressure.
func (x *Exec) yieldFor(q *queue.Queue) (bool, <-chan struct{}) {
	if _, mine := x.owns[q]; mine {
		// Producer and consumer are the same executor (GTS, or a cut edge
		// internal to one group): parking could never be woken. Overshoot
		// the bound instead; the strategy drains the queue next.
		return false, nil
	}
	if x.ts != nil && !x.permit {
		// The permit was already lost to a stop during an earlier park in
		// this same slice; force the rest of the push through so the slice
		// can unwind without re-parking.
		return false, nil
	}
	if !x.holdsWorld {
		panic("sched: lock-order violation: executor parking without the world read lock")
	}
	if x.ts != nil {
		x.ts.Release(x.proc)
		x.permit = false
	}
	x.holdsWorld = false
	x.world.RUnlock()
	return true, x.stop
}

// resumeFor reacquires what yieldFor released, in the documented order:
// world read lock first, then the TS permit. A stop during reacquisition
// leaves the executor without a permit; the push completes (past the
// bound if it was woken by the abort) and runSlice exits at its next stop
// check, with run() skipping the final Release.
func (x *Exec) resumeFor(_ *queue.Queue, _ bool) {
	if x.holdsWorld {
		panic("sched: lock-order violation: executor resuming with the world read lock held")
	}
	x.world.RLock()
	x.holdsWorld = true
	if x.ts != nil && !x.permit && x.ts.Acquire(x.proc, x.stop) {
		x.permit = true
	}
}

// waitWork blocks until some unit is ready or stop closes; it returns
// false on stop or when every unit has finished. It consumes the dirty-
// unit protocol: each wakeup names the unit that changed, so the cost of
// an idle-wake cycle is one index update, not a rescan of every unit.
func (x *Exec) waitWork() bool {
	for {
		if x.open.Load() == 0 {
			return false
		}
		if x.strat.Ready() {
			return true
		}
		select {
		case i := <-x.notify:
			x.applyDirty(i)
			x.drainNotify()
		case <-x.stop:
			return false
		}
	}
}
