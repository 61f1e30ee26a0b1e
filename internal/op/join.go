package op

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/stream"
)

// MergeFunc combines a pair of joining elements into the output element.
// The left argument always comes from input port 0.
type MergeFunc func(l, r stream.Element) stream.Element

// withinWindow reports whether two event times lie strictly within one
// window length of each other.
func withinWindow(a, b, window int64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < window
}

// defaultMerge stamps the output with the later event time, keeps the join
// key, and sums the payloads — a deterministic, commutative-over-ports
// default that reference tests can reproduce exactly.
func defaultMerge(l, r stream.Element) stream.Element {
	ts := l.TS
	if r.TS > ts {
		ts = r.TS
	}
	return stream.Element{TS: ts, Key: l.Key, Val: l.Val + r.Val}
}

// SHJ is a binary symmetric hash join over sliding time windows, the
// decoupling workhorse of the paper's first experiment (§6.3). Each input
// is kept in a hash table on Key for the duration of the window; an
// arriving element is inserted into its own side's table and probed
// against the opposite side.
//
// Event time must be nondecreasing per input port; expiry removes elements
// whose timestamp is at or before (arrival − window).
type SHJ struct {
	Base
	window  int64
	merge   MergeFunc
	sides   [2]hashSide
	heldPub atomic.Int64 // published WindowLen for race-free RetainedRows
}

type hashSide struct {
	table map[int64][]stream.Element
	order fifo
}

// NewSHJ returns a symmetric hash join with the given window length in
// nanoseconds. A nil merge uses the deterministic default.
func NewSHJ(name string, window int64, merge MergeFunc) *SHJ {
	if window <= 0 {
		panic("op: join window must be positive")
	}
	if merge == nil {
		merge = defaultMerge
	}
	j := &SHJ{window: window, merge: merge}
	j.InitBase(name, 2)
	j.sides[0].table = make(map[int64][]stream.Element)
	j.sides[1].table = make(map[int64][]stream.Element)
	return j
}

func (s *hashSide) insert(e stream.Element) {
	s.table[e.Key] = append(s.table[e.Key], e)
	s.order.push(e)
}

// expire drops all elements with TS <= deadline. Window contents are FIFO
// in event time, so expiry pops from the front. Per-key buckets are also in
// arrival order, so the expired element is always its bucket's head.
func (s *hashSide) expire(deadline int64) {
	for !s.order.empty() && s.order.front().TS <= deadline {
		e := s.order.pop()
		bucket := s.table[e.Key]
		// The expired element is the oldest in its bucket.
		if len(bucket) == 1 {
			delete(s.table, e.Key)
		} else {
			// Zero the evicted slot before re-slicing: the backing array
			// outlives the head, and a stale slot would pin the expired
			// element's Aux payload until the next append reallocates.
			bucket[0] = stream.Element{}
			s.table[e.Key] = bucket[1:]
		}
	}
}

// WindowLen returns the number of elements currently held across both
// sides' windows — the join's state size.
func (j *SHJ) WindowLen() int { return j.sides[0].order.len() + j.sides[1].order.len() }

// probe inserts e into its own side, probes the opposite side, and appends
// every match to out.
func (j *SHJ) probe(port int, e stream.Element, out []stream.Element) []stream.Element {
	own, other := &j.sides[port], &j.sides[1-port]
	own.insert(e)
	for _, m := range other.table[e.Key] {
		// The window predicate is on event time, so cross-port arrival
		// skew can never produce a pair farther apart than the window;
		// expiry alone would only bound the in-order case.
		if !withinWindow(e.TS, m.TS, j.window) {
			continue
		}
		var r stream.Element
		if port == 0 {
			r = j.merge(e, m)
		} else {
			r = j.merge(m, e)
		}
		// Outputs carry the triggering input's sequence stamp so a
		// downstream shard Merge can restore emission order; outside a
		// shard region e.Seq is 0 and this is a no-op.
		r.Seq = e.Seq
		out = append(out, r)
	}
	return out
}

// ExportShardState implements ShardState: both sides' window contents,
// tagged with their input port, in ascending Seq order.
func (j *SHJ) ExportShardState() []PortedElement {
	var pes []PortedElement
	for s := 0; s < 2; s++ {
		port := s
		j.sides[s].order.each(func(e stream.Element) { pes = append(pes, PortedElement{Port: port, E: e}) })
	}
	SortPortedBySeq(pes)
	return pes
}

// RetainedRows reports the elements held across both window sides — the
// state a reshard must port. Safe to read while an executor is processing.
func (j *SHJ) RetainedRows() int { return int(j.heldPub.Load()) }

// ImportShardElement implements ShardState: re-insert a retained element
// into its side without probing, expiring with its own deadline.
func (j *SHJ) ImportShardElement(port int, e stream.Element) {
	deadline := e.TS - j.window
	j.sides[0].expire(deadline)
	j.sides[1].expire(deadline)
	j.sides[port].insert(e)
	j.heldPub.Store(int64(j.WindowLen()))
}

// ProcessBatch implements Sink. Expiry is hoisted out of the
// per-element loop: one pass per side with the deadline of the batch's
// first element. That cannot change outputs — event time is nondecreasing,
// so anything expirable at the first element is out of window for every
// batch element, and anything a later element would have expired is still
// rejected by the explicit withinWindow probe predicate; only state
// eviction is deferred, by at most one batch.
func (j *SHJ) ProcessBatch(port int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := j.BeginWorkBatch(es)
	deadline := es[0].TS - j.window
	j.sides[0].expire(deadline)
	j.sides[1].expire(deadline)
	out := j.scratch(len(es))
	for _, e := range es {
		out = j.probe(port, e, out)
	}
	j.heldPub.Store(int64(j.WindowLen()))
	j.flush(out)
	j.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (j *SHJ) Done(port int) {
	if j.MarkDone(port) {
		j.Close()
	}
}

// SNJ is a binary symmetric nested-loops join over sliding time windows.
// It supports arbitrary theta predicates, at the price of scanning the
// whole opposite window per element — the expensive alternative the paper
// compares against SHJ in Figure 6.
type SNJ struct {
	Base
	window int64
	pred   func(l, r stream.Element) bool
	merge  MergeFunc
	wins   [2]fifo
}

// NewSNJ returns a symmetric nested-loops join. A nil pred matches on key
// equality; a nil merge uses the deterministic default.
func NewSNJ(name string, window int64, pred func(l, r stream.Element) bool, merge MergeFunc) *SNJ {
	if window <= 0 {
		panic("op: join window must be positive")
	}
	if pred == nil {
		pred = func(l, r stream.Element) bool { return l.Key == r.Key }
	}
	if merge == nil {
		merge = defaultMerge
	}
	j := &SNJ{window: window, pred: pred, merge: merge}
	j.InitBase(name, 2)
	return j
}

// WindowLen returns the number of elements currently held across both
// sides' windows.
func (j *SNJ) WindowLen() int { return j.wins[0].len() + j.wins[1].len() }

// expire drops window elements at or before deadline from both sides.
func (j *SNJ) expire(deadline int64) {
	for s := 0; s < 2; s++ {
		w := &j.wins[s]
		for !w.empty() && w.front().TS <= deadline {
			w.pop()
		}
	}
}

// scan inserts e and scans the opposite window, appending matches to out.
func (j *SNJ) scan(port int, e stream.Element, out []stream.Element) []stream.Element {
	j.wins[port].push(e)
	other := &j.wins[1-port]
	if port == 0 {
		other.each(func(m stream.Element) {
			if withinWindow(e.TS, m.TS, j.window) && j.pred(e, m) {
				out = append(out, j.merge(e, m))
			}
		})
	} else {
		other.each(func(m stream.Element) {
			if withinWindow(e.TS, m.TS, j.window) && j.pred(m, e) {
				out = append(out, j.merge(m, e))
			}
		})
	}
	return out
}

// ProcessBatch implements Sink. As in SHJ, expiry is hoisted to one
// pass with the first element's deadline — output-equivalent because every
// match is re-checked against the event-time window predicate.
func (j *SNJ) ProcessBatch(port int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := j.BeginWorkBatch(es)
	j.expire(es[0].TS - j.window)
	out := j.scratch(len(es))
	for _, e := range es {
		out = j.scan(port, e, out)
	}
	j.flush(out)
	j.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (j *SNJ) Done(port int) {
	if j.MarkDone(port) {
		j.Close()
	}
}
