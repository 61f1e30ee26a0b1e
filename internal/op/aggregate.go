package op

import (
	"fmt"
	"sync/atomic"

	"github.com/dsms/hmts/internal/stream"
)

// AggKind selects the aggregate function of a WindowAgg.
type AggKind int

// Supported aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL-ish name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// aggState is the incremental state of one group's aggregate.
type aggState struct {
	key   int64
	win   fifo
	count int64
	sum   float64
	// deque holds a monotonic sequence of candidate values for min/max;
	// front is the current extremum. Standard sliding-window-extremum
	// structure: amortized O(1) per element.
	deque f64deque
	// hpos is the group's index in the expiry heap, -1 while its window is
	// empty (empty groups are not heap members).
	hpos int
}

// WindowAgg computes a sliding-window aggregate, optionally grouped, and
// emits the updated aggregate value on every input element (continuous
// semantics, as in PIPES). The paper's motivating example (§5.1.1) is an
// expensive aggregation downstream of a cheap unary chain.
//
// The window is either time-based (the last `window` nanoseconds of event
// time) or count-based (the last `rows` elements per group).
type WindowAgg struct {
	Base
	kind   AggKind
	window int64 // time window in ns; 0 for count windows
	rows   int   // count window size; 0 for time windows
	group  func(stream.Element) int64
	groups map[int64]*aggState
	// expq is a min-heap of the non-empty groups on their oldest element's
	// timestamp. Time-window expiry consults only the heap top, so an
	// arrival costs O(1) when nothing is due and O(log G) amortized per
	// expired element — not a scan of every group per element.
	expq []*aggState
	// held counts elements across group windows incrementally (add/remove
	// are the only mutation points); heldPub publishes it at processing
	// boundaries so RetainedRows can be read while an executor runs —
	// WindowLen walks the groups map and would race.
	held    int
	heldPub atomic.Int64
}

// NewWindowAgg returns a windowed aggregate of the given kind over a time
// window in nanoseconds. A nil group function aggregates the whole stream
// as one group. Event time must be nondecreasing.
func NewWindowAgg(name string, kind AggKind, window int64, group func(stream.Element) int64) *WindowAgg {
	if window <= 0 {
		panic("op: aggregate window must be positive")
	}
	a := newAgg(name, kind, group)
	a.window = window
	return a
}

// NewCountWindowAgg returns an aggregate over the last rows elements per
// group (a ROWS window). Groups persist for the stream's lifetime, so the
// state is bounded by rows × distinct groups.
func NewCountWindowAgg(name string, kind AggKind, rows int, group func(stream.Element) int64) *WindowAgg {
	if rows <= 0 {
		panic("op: aggregate ROWS window must be positive")
	}
	a := newAgg(name, kind, group)
	a.rows = rows
	return a
}

func newAgg(name string, kind AggKind, group func(stream.Element) int64) *WindowAgg {
	if group == nil {
		group = func(stream.Element) int64 { return 0 }
	}
	a := &WindowAgg{kind: kind, group: group, groups: make(map[int64]*aggState)}
	a.InitBase(name, 1)
	return a
}

// GroupCount returns the number of live groups.
func (a *WindowAgg) GroupCount() int { return len(a.groups) }

// WindowLen returns the total number of elements held across group windows.
func (a *WindowAgg) WindowLen() int {
	n := 0
	for _, g := range a.groups {
		n += g.win.len()
	}
	return n
}

// heapUp restores the heap property from i toward the root.
func (a *WindowAgg) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if a.expq[p].win.front().TS <= a.expq[i].win.front().TS {
			return
		}
		a.heapSwap(i, p)
		i = p
	}
}

// heapDown restores the heap property from i toward the leaves.
func (a *WindowAgg) heapDown(i int) {
	n := len(a.expq)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && a.expq[l].win.front().TS < a.expq[least].win.front().TS {
			least = l
		}
		if r < n && a.expq[r].win.front().TS < a.expq[least].win.front().TS {
			least = r
		}
		if least == i {
			return
		}
		a.heapSwap(i, least)
		i = least
	}
}

func (a *WindowAgg) heapSwap(i, j int) {
	a.expq[i], a.expq[j] = a.expq[j], a.expq[i]
	a.expq[i].hpos = i
	a.expq[j].hpos = j
}

// heapPush enters a newly non-empty group into the expiry heap.
func (a *WindowAgg) heapPush(g *aggState) {
	g.hpos = len(a.expq)
	a.expq = append(a.expq, g)
	a.heapUp(g.hpos)
}

// heapRemove takes a now-empty group out of the expiry heap.
func (a *WindowAgg) heapRemove(g *aggState) {
	i := g.hpos
	last := len(a.expq) - 1
	a.expq[i] = a.expq[last]
	a.expq[i].hpos = i
	a.expq[last] = nil // release the pointer for GC
	a.expq = a.expq[:last]
	if i < last {
		a.heapDown(i)
		a.heapUp(i)
	}
	g.hpos = -1
}

func (a *WindowAgg) add(g *aggState, e stream.Element) {
	wasEmpty := g.win.empty()
	g.win.push(e)
	a.held++
	g.count++
	g.sum += e.Val
	switch a.kind {
	case AggMin:
		for !g.deque.empty() && g.deque.back() > e.Val {
			g.deque.popBack()
		}
		g.deque.pushBack(e.Val)
	case AggMax:
		for !g.deque.empty() && g.deque.back() < e.Val {
			g.deque.popBack()
		}
		g.deque.pushBack(e.Val)
	}
	if wasEmpty {
		a.heapPush(g)
	}
}

func (a *WindowAgg) remove(g *aggState) {
	e := g.win.pop()
	a.held--
	g.count--
	g.sum -= e.Val
	if (a.kind == AggMin || a.kind == AggMax) && !g.deque.empty() && g.deque.front() == e.Val {
		g.deque.popFront()
	}
	// The group's oldest element changed: re-seat it in the expiry heap.
	// Event time is nondecreasing within a window, so the new front can
	// only be later — a sift toward the leaves suffices.
	if g.win.empty() {
		a.heapRemove(g)
	} else {
		a.heapDown(g.hpos)
	}
}

// expire removes every window element with TS <= deadline across all
// groups, consulting only groups whose oldest element is due via the
// expiry heap. Groups left empty are dropped, except keep — the group
// about to receive the arriving element — so whole-stream windows stay
// consistent even for groups that receive no new elements for a while.
func (a *WindowAgg) expire(deadline int64, keep *aggState) {
	for len(a.expq) > 0 {
		g := a.expq[0]
		if g.win.front().TS > deadline {
			return
		}
		for !g.win.empty() && g.win.front().TS <= deadline {
			a.remove(g)
		}
		if g.win.empty() && g != keep {
			delete(a.groups, g.key)
		}
	}
}

func (a *WindowAgg) result(g *aggState) float64 {
	switch a.kind {
	case AggCount:
		return float64(g.count)
	case AggSum:
		return g.sum
	case AggAvg:
		if g.count == 0 {
			return 0
		}
		return g.sum / float64(g.count)
	case AggMin, AggMax:
		if g.deque.empty() {
			return 0
		}
		return g.deque.front()
	}
	panic("op: unknown aggregate kind")
}

// step applies one element to the aggregate state and returns the updated
// aggregate to emit. ProcessBatch and state import both replay through it
// so they cannot diverge semantically.
func (a *WindowAgg) step(e stream.Element) stream.Element {
	key := a.group(e)
	g := a.groups[key]
	if g == nil {
		g = &aggState{key: key, hpos: -1}
		a.groups[key] = g
	}
	if a.rows > 0 {
		// Count window: keep the newest rows elements of this group.
		a.add(g, e)
		for g.win.len() > a.rows {
			a.remove(g)
		}
	} else {
		a.expire(e.TS-a.window, g)
		a.add(g, e)
	}
	return stream.Element{TS: e.TS, Key: key, Val: a.result(g), Seq: e.Seq}
}

// ExportShardState implements ShardState: every element still held in a
// group window, in ascending Seq order.
func (a *WindowAgg) ExportShardState() []PortedElement {
	var pes []PortedElement
	for _, g := range a.groups {
		g.win.each(func(e stream.Element) { pes = append(pes, PortedElement{E: e}) })
	}
	SortPortedBySeq(pes)
	return pes
}

// RetainedRows reports the elements currently held across group windows —
// the state a reshard would have to port. Unlike WindowLen it is safe to
// call while an executor is processing.
func (a *WindowAgg) RetainedRows() int { return int(a.heldPub.Load()) }

// ImportShardElement implements ShardState: replay one retained element,
// rebuilding window state without emitting.
func (a *WindowAgg) ImportShardElement(_ int, e stream.Element) {
	a.step(e)
	a.heldPub.Store(int64(a.held))
}

// ProcessBatch implements Sink. Expiry stays per element — the
// emitted aggregate value at each element's event time depends on it — but
// the heap makes it O(1) when nothing is due, and metering and downstream
// dispatch are hoisted out of the loop: one stats update and one fan-out
// per batch.
func (a *WindowAgg) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := a.BeginWorkBatch(es)
	out := a.scratch(len(es))
	for _, e := range es {
		out = append(out, a.step(e))
	}
	a.heldPub.Store(int64(a.held))
	a.flush(out)
	a.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (a *WindowAgg) Done(port int) {
	if a.MarkDone(port) {
		a.Close()
	}
}
