package op

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// The batch-boundary invariance harness: every operator is driven twice
// with an identical element sequence — once as one-element batches (the
// "scalar" reference run: one element per call), once with the same
// elements cut into batches of random size (batches never span ports,
// matching the Sink contract) — and must produce identical outputs on every
// downstream edge, identical Done propagation, and identical In/Out stats
// counters. The batched run also checks that no operator mutates the batch
// it was handed. make race runs this package under the race detector.

// portedElem is one input event: which port it arrives on and the element.
type portedElem struct {
	port int
	e    stream.Element
}

// feed delivers one element to s on port as a one-element batch. It is the
// single way tests in this package hand over an individual element.
func feed(s Sink, port int, e stream.Element) {
	s.ProcessBatch(port, []stream.Element{e})
}

// captureSink records everything delivered to it, per input port.
type captureSink struct {
	got   []stream.Element
	dones int
}

func (c *captureSink) ProcessBatch(_ int, es []stream.Element) { c.got = append(c.got, es...) }
func (c *captureSink) Done(int)                                { c.dones++ }

// genSeq produces n events with nondecreasing event time over the given
// port count. disorder adds bounded timestamp jitter (for Reorder).
func genSeq(rng *xrand.Rand, n, ports int, disorder bool) []portedElem {
	seq := make([]portedElem, n)
	var ts int64
	for i := range seq {
		ts += rng.Int64n(40)
		e := stream.Element{TS: ts, Key: rng.Int64n(16), Val: float64(rng.Int64n(100))}
		if disorder {
			e.TS += rng.Int64n(120) - 60
			if e.TS < 0 {
				e.TS = 0
			}
		}
		if rng.Int64n(8) == 0 {
			e.Aux = i
		}
		seq[i] = portedElem{port: int(rng.Int64n(int64(ports))), e: e}
	}
	return seq
}

// driveOnes feeds every event in order as a one-element batch.
func driveOnes(s Sink, seq []portedElem) {
	for _, pe := range seq {
		feed(s, pe.port, pe.e)
	}
}

// driveBatched feeds the same events in batches: maximal same-port runs
// are split at random boundaries into batches of 1..maxB. The batch buffer
// is reused across calls, as the engine's queues and sources reuse theirs,
// and is checked unchanged after every call.
func driveBatched(t *testing.T, s Sink, seq []portedElem, rng *xrand.Rand, maxB int) {
	t.Helper()
	buf := make([]stream.Element, 0, maxB)
	for i := 0; i < len(seq); {
		j := i + 1
		limit := i + 1 + int(rng.Int64n(int64(maxB)))
		for j < len(seq) && j < limit && seq[j].port == seq[i].port {
			j++
		}
		buf = buf[:0]
		for _, pe := range seq[i:j] {
			buf = append(buf, pe.e)
		}
		s.ProcessBatch(seq[i].port, buf)
		for k, pe := range seq[i:j] {
			if !reflect.DeepEqual(buf[k], pe.e) {
				t.Fatalf("batch element %d mutated by the callee: %v, sent %v", i+k, buf[k], pe.e)
			}
		}
		i = j
	}
}

// equivCase builds one operator instance per invocation so the
// one-element and random-batch runs start from identical state.
type equivCase struct {
	name     string
	ports    int
	disorder bool
	mk       func() Operator
}

func equivCases() []equivCase {
	w := int64(500)
	return []equivCase{
		{name: "filter", ports: 1, mk: func() Operator {
			return NewFilter("f", func(e stream.Element) bool { return e.Key%3 != 0 })
		}},
		{name: "map", ports: 1, mk: func() Operator {
			return NewMap("m", func(e stream.Element) stream.Element { e.Val *= 2; e.Key++; return e })
		}},
		{name: "sample", ports: 1, mk: func() Operator { return NewSample("s", 0.5, 7) }},
		{name: "union", ports: 2, mk: func() Operator { return NewUnion("u", 2) }},
		{name: "throttle", ports: 1, mk: func() Operator { return NewThrottle("t", 5e7, 4) }},
		{name: "costsim", ports: 1, mk: func() Operator {
			return NewCostSim("c", 0, func(e stream.Element) bool { return e.Key%2 == 0 })
		}},
		{name: "agg-sum-time", ports: 1, mk: func() Operator { return NewWindowAgg("a", AggSum, w, nil) }},
		{name: "agg-avg-time-grouped", ports: 1, mk: func() Operator {
			return NewWindowAgg("a", AggAvg, w, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "agg-min-time-grouped", ports: 1, mk: func() Operator {
			return NewWindowAgg("a", AggMin, w, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "agg-max-time", ports: 1, mk: func() Operator { return NewWindowAgg("a", AggMax, w, nil) }},
		{name: "agg-count-rows-grouped", ports: 1, mk: func() Operator {
			return NewCountWindowAgg("a", AggCount, 5, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "distinct", ports: 1, mk: func() Operator { return NewDistinct("d", w) }},
		{name: "topk", ports: 1, mk: func() Operator { return NewTopK("t", 3, w) }},
		{name: "shj", ports: 2, mk: func() Operator { return NewSHJ("j", w, nil) }},
		{name: "snj", ports: 2, mk: func() Operator {
			return NewSNJ("j", w, func(l, r stream.Element) bool { return l.Key == r.Key }, nil)
		}},
		{name: "mjoin3", ports: 3, mk: func() Operator { return NewMJoin("j", 3, w, nil) }},
		{name: "reorder", ports: 1, disorder: true, mk: func() Operator { return NewReorder("r", 200) }},
	}
}

func TestBatchScalarEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				rng := xrand.New(seed)
				seq := genSeq(rng, 400, tc.ports, tc.disorder)

				sop := tc.mk()
				scap := &captureSink{}
				sop.Subscribe(scap, 0)
				driveOnes(sop, seq)

				bop := tc.mk()
				bcap := &captureSink{}
				bop.Subscribe(bcap, 0)
				driveBatched(t, bop, seq, xrand.New(seed+100), 33)

				for p := 0; p < tc.ports; p++ {
					sop.Done(p)
					bop.Done(p)
				}

				if !reflect.DeepEqual(scap.got, bcap.got) {
					t.Fatalf("seed %d: outputs diverge: one-element %d elements, batch %d\nones:  %v\nbatch: %v",
						seed, len(scap.got), len(bcap.got), trunc(scap.got), trunc(bcap.got))
				}
				if scap.dones != 1 || bcap.dones != 1 {
					t.Fatalf("seed %d: Done propagation diverges: one-element %d, batch %d", seed, scap.dones, bcap.dones)
				}
				so, bo := sop.Stats(), bop.Stats()
				if so.In() != bo.In() || so.In() != uint64(len(seq)) {
					t.Fatalf("seed %d: In counters diverge: one-element %d, batch %d, want %d", seed, so.In(), bo.In(), len(seq))
				}
				if so.Out() != bo.Out() || so.Out() != uint64(len(scap.got)) {
					t.Fatalf("seed %d: Out counters diverge: one-element %d, batch %d, want %d", seed, so.Out(), bo.Out(), len(scap.got))
				}
			}
		})
	}
}

func trunc(es []stream.Element) string {
	if len(es) > 12 {
		return fmt.Sprintf("%v… (+%d)", es[:12], len(es)-12)
	}
	return fmt.Sprint(es)
}

// TestBatchScalarEquivalenceSwitch covers the router separately: its
// outputs fan across branches, so equivalence is per-branch.
func TestBatchScalarEquivalenceSwitch(t *testing.T) {
	preds := []func(stream.Element) bool{
		func(e stream.Element) bool { return e.Key < 5 },
		func(e stream.Element) bool { return e.Key < 11 },
		nil, // catch-all
	}
	for _, routeAll := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := xrand.New(seed)
			seq := genSeq(rng, 400, 1, false)

			mk := func() (*Switch, []*captureSink) {
				s := NewSwitch("sw", preds, routeAll)
				caps := make([]*captureSink, len(preds))
				for i := range caps {
					caps[i] = &captureSink{}
					s.SubscribeBranch(i, caps[i], 0)
				}
				return s, caps
			}
			ss, scaps := mk()
			driveOnes(ss, seq)
			bs, bcaps := mk()
			driveBatched(t, bs, seq, xrand.New(seed+100), 33)
			ss.Done(0)
			bs.Done(0)
			for i := range scaps {
				if !reflect.DeepEqual(scaps[i].got, bcaps[i].got) {
					t.Fatalf("routeAll=%v seed %d: branch %d diverges: one-element %d elements, batch %d",
						routeAll, seed, i, len(scaps[i].got), len(bcaps[i].got))
				}
				if scaps[i].dones != 1 || bcaps[i].dones != 1 {
					t.Fatalf("routeAll=%v seed %d: branch %d Done diverges", routeAll, seed, i)
				}
			}
			if ss.Stats().Out() != bs.Stats().Out() {
				t.Fatalf("routeAll=%v seed %d: Out diverges: %d vs %d", routeAll, seed, ss.Stats().Out(), bs.Stats().Out())
			}
		}
	}
}

// TestBatchEquivalenceThroughChain drives a fused DI chain end to end —
// random batches entering the head must yield the same sink sequence as
// one-element batches, including across a two-edge fan-out at the tail.
func TestBatchEquivalenceThroughChain(t *testing.T) {
	build := func() (head *Filter, cap1, cap2 *captureSink) {
		head = NewFilter("f", func(e stream.Element) bool { return e.Key%5 != 0 })
		m := NewMap("m", func(e stream.Element) stream.Element { e.Val++; return e })
		a := NewWindowAgg("a", AggMax, 300, func(e stream.Element) int64 { return e.Key % 3 })
		head.Subscribe(m, 0)
		m.Subscribe(a, 0)
		cap1, cap2 = &captureSink{}, &captureSink{}
		a.Subscribe(cap1, 0)
		a.Subscribe(cap2, 0) // sibling edge: must see the identical stream
		return head, cap1, cap2
	}
	for seed := uint64(1); seed <= 3; seed++ {
		seq := genSeq(xrand.New(seed), 500, 1, false)
		sh, sc1, sc2 := build()
		driveOnes(sh, seq)
		sh.Done(0)
		bh, bc1, bc2 := build()
		driveBatched(t, bh, seq, xrand.New(seed+100), 64)
		bh.Done(0)
		if !reflect.DeepEqual(sc1.got, bc1.got) || !reflect.DeepEqual(sc2.got, bc2.got) {
			t.Fatalf("seed %d: chain outputs diverge (one-element %d, batch %d)", seed, len(sc1.got), len(bc1.got))
		}
		if !reflect.DeepEqual(bc1.got, bc2.got) {
			t.Fatalf("seed %d: sibling fan-out edges diverge", seed)
		}
		if sc1.dones != 1 || bc1.dones != 1 {
			t.Fatalf("seed %d: Done diverges", seed)
		}
	}
}

// TestBatchMeteringFeedsEstimators checks the batch path still converges
// the c(v)/d(v) estimators that placement and adapt consume: after a
// batched run both must be nonzero, and d(v) must reflect the stream's
// event-time spacing (one observation per batch, mean-gap semantics).
func TestBatchMeteringFeedsEstimators(t *testing.T) {
	f := NewCostSim("c", int64(2*time.Microsecond), nil)
	f.Subscribe(NewNull(1), 0)
	const gap, batch, batches = 1000, 32, 40
	buf := make([]stream.Element, batch)
	var ts int64
	for b := 0; b < batches; b++ {
		for i := range buf {
			ts += gap
			buf[i] = stream.Element{TS: ts, Key: int64(i)}
		}
		f.ProcessBatch(0, buf)
	}
	st := f.Stats()
	if st.In() != batch*batches {
		t.Fatalf("In = %d, want %d", st.In(), batch*batches)
	}
	if st.CostNS() <= 0 {
		t.Fatalf("CostNS = %v, want > 0 (sampled batch metering must fire)", st.CostNS())
	}
	if d := st.InterarrivalNS(); d < gap*0.5 || d > gap*1.5 {
		t.Fatalf("InterarrivalNS = %v, want ≈ %d", d, gap)
	}
	if st.BusyNS() <= 0 {
		t.Fatal("BusyNS must accumulate on the batch path")
	}
}

// TestMeteringSamplesEvery16Elements pins the single sampling rule: the
// batch that carries the arrival count past meterEvery elements is timed.
// One-element batches are timed 1 in 16; a batch of meterEvery or more
// elements is timed every time.
func TestMeteringSamplesEvery16Elements(t *testing.T) {
	var b Base
	b.InitBase("m", 1)
	one := []stream.Element{{}}
	for i := 1; i <= 3*meterEvery; i++ {
		timed := b.BeginWorkBatch(one) >= 0
		if want := i%meterEvery == 0; timed != want {
			t.Fatalf("one-element batch %d: timed=%v, want %v", i, timed, want)
		}
	}
	big := make([]stream.Element, meterEvery)
	for i := 0; i < 4; i++ {
		if b.BeginWorkBatch(big) < 0 {
			t.Fatalf("batch of %d elements #%d not timed", len(big), i)
		}
	}
	half := big[:meterEvery/2]
	for i := 1; i <= 6; i++ {
		timed := b.BeginWorkBatch(half) >= 0
		if want := i%2 == 0; timed != want {
			t.Fatalf("half batch %d: timed=%v, want %v", i, timed, want)
		}
	}
}
