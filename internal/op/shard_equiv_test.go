package op

import (
	"reflect"
	"testing"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// The shard-count equivalence harness: every keyed stateful operator is
// driven once unsharded and once through a split → n replicas → merge
// region (directly wired, no queues) with the identical element sequence,
// and the merged output must be byte-identical for every replica count —
// the core guarantee of the shard rewrite. One-element and random-size
// batch drives are both exercised.

// buildRegion wires a shard region of n replicas directly: split branches
// feed the replicas, replicas feed the merge, frontier counters bound.
func buildRegion(n, ins int, key func(int, stream.Element) int64, mk func(i int) Operator) (*Split, *Merge, []Operator) {
	sp := NewSplit("sp", ins, n, key)
	mg := NewMerge("mg", n)
	reps := make([]Operator, n)
	for i := 0; i < n; i++ {
		rep := mk(i)
		reps[i] = rep
		for p := 0; p < ins; p++ {
			sp.SubscribeShard(i, p, rep, p)
		}
		rep.Subscribe(mg, i)
		mg.BindUpstream(i, sp, rep)
	}
	return sp, mg, reps
}

// shardCase is one keyed operator under test: the partition key must match
// the operator's own grouping for the rewrite to be equivalence-preserving.
type shardCase struct {
	name  string
	ports int
	key   func(int, stream.Element) int64
	mk    func(i int) Operator
}

func shardCases() []shardCase {
	w := int64(500)
	group := func(e stream.Element) int64 { return e.Key % 4 }
	byGroup := func(_ int, e stream.Element) int64 { return group(e) }
	byKey := func(_ int, e stream.Element) int64 { return e.Key }
	return []shardCase{
		{name: "agg-sum-time-grouped", ports: 1, key: byGroup, mk: func(int) Operator {
			return NewWindowAgg("a", AggSum, w, group)
		}},
		{name: "agg-avg-time-grouped", ports: 1, key: byGroup, mk: func(int) Operator {
			return NewWindowAgg("a", AggAvg, w, group)
		}},
		{name: "agg-min-time-grouped", ports: 1, key: byGroup, mk: func(int) Operator {
			return NewWindowAgg("a", AggMin, w, group)
		}},
		{name: "agg-count-rows-grouped", ports: 1, key: byGroup, mk: func(int) Operator {
			return NewCountWindowAgg("a", AggCount, 5, group)
		}},
		{name: "distinct", ports: 1, key: byKey, mk: func(int) Operator {
			return NewDistinct("d", w)
		}},
		{name: "shj", ports: 2, key: byKey, mk: func(int) Operator {
			return NewSHJ("j", w, nil)
		}},
	}
}

func TestShardCountEquivalence(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				seq := genSeq(xrand.New(seed), 400, tc.ports, false)

				ref := tc.mk(0)
				rcap := &captureSink{}
				ref.Subscribe(rcap, 0)
				driveOnes(ref, seq)
				for p := 0; p < tc.ports; p++ {
					ref.Done(p)
				}

				for _, n := range []int{1, 2, 3, 8} {
					for _, batched := range []bool{false, true} {
						sp, mg, _ := buildRegion(n, tc.ports, tc.key, tc.mk)
						cap := &captureSink{}
						mg.Subscribe(cap, 0)
						if batched {
							driveBatched(t, sp, seq, xrand.New(seed+100), 33)
						} else {
							driveOnes(sp, seq)
						}
						for p := 0; p < tc.ports; p++ {
							sp.Done(p)
						}
						if !reflect.DeepEqual(rcap.got, cap.got) {
							t.Fatalf("seed %d n=%d batched=%v: outputs diverge: unsharded %d elements, sharded %d\nref:    %v\nshard:  %v",
								seed, n, batched, len(rcap.got), len(cap.got), trunc(rcap.got), trunc(cap.got))
						}
						if cap.dones != 1 {
							t.Fatalf("seed %d n=%d batched=%v: merge propagated %d Dones, want 1", seed, n, batched, cap.dones)
						}
						if mg.Buffered() != 0 {
							t.Fatalf("seed %d n=%d batched=%v: %d elements stuck in the merge", seed, n, batched, mg.Buffered())
						}
						if got := mg.Stats().Out(); got != uint64(len(cap.got)) {
							t.Fatalf("seed %d n=%d: merge Out=%d, delivered %d", seed, n, got, len(cap.got))
						}
					}
				}
			}
		})
	}
}

// TestShardTopKPartitioned checks the documented TopK shard semantics:
// each shard tracks the top k of its own key partition, so the region's
// output equals n independent TopK instances fed by the same hash routing,
// interleaved in input order.
func TestShardTopKPartitioned(t *testing.T) {
	const k, w = 3, int64(500)
	byKey := func(_ int, e stream.Element) int64 { return e.Key }
	for seed := uint64(1); seed <= 4; seed++ {
		seq := genSeq(xrand.New(seed), 400, 1, false)
		for _, n := range []int{1, 2, 3, 8} {
			// Reference: per-partition TopK instances, outputs in input order.
			refs := make([]*TopK, n)
			rcap := &captureSink{}
			for i := range refs {
				refs[i] = NewTopK("r", k, w)
				refs[i].Subscribe(rcap, 0)
			}
			for _, pe := range seq {
				feed(refs[ShardIndex(pe.e.Key, n)], 0, pe.e)
			}

			sp, mg, _ := buildRegion(n, 1, byKey, func(int) Operator { return NewTopK("t", k, w) })
			cap := &captureSink{}
			mg.Subscribe(cap, 0)
			driveOnes(sp, seq)
			sp.Done(0)
			if !reflect.DeepEqual(rcap.got, cap.got) {
				t.Fatalf("seed %d n=%d: sharded TopK diverges from partitioned reference: %d vs %d elements",
					seed, n, len(rcap.got), len(cap.got))
			}
			if n == 1 {
				// One shard must degenerate to the global answer.
				g := NewTopK("g", k, w)
				gcap := &captureSink{}
				g.Subscribe(gcap, 0)
				driveOnes(g, seq)
				if !reflect.DeepEqual(gcap.got, cap.got) {
					t.Fatalf("seed %d: single-shard TopK diverges from unsharded", seed)
				}
			}
		}
	}
}

// TestShardReplicaIndependence verifies replicas never share mutable
// state through the region: each replica accumulates its own stats, and
// the merged stats add up to the split's routing counts.
func TestShardReplicaIndependence(t *testing.T) {
	group := func(e stream.Element) int64 { return e.Key }
	seq := genSeq(xrand.New(7), 300, 1, false)
	sp, mg, reps := buildRegion(3, 1, func(_ int, e stream.Element) int64 { return group(e) },
		func(int) Operator { return NewWindowAgg("a", AggSum, 500, group) })
	cap := &captureSink{}
	mg.Subscribe(cap, 0)
	driveOnes(sp, seq)
	sp.Done(0)

	var in, out uint64
	for i, r := range reps {
		for j := i + 1; j < len(reps); j++ {
			if r.Stats() == reps[j].Stats() {
				t.Fatalf("replicas %d and %d share an OpStats instance", i, j)
			}
		}
		in += r.Stats().In()
		out += r.Stats().Out()
	}
	if in != uint64(len(seq)) {
		t.Fatalf("replica In counters sum to %d, want %d", in, len(seq))
	}
	if out != uint64(len(cap.got)) {
		t.Fatalf("replica Out counters sum to %d, delivered %d", out, len(cap.got))
	}
	if sp.Stats().Out() != uint64(len(seq)) {
		t.Fatalf("split routed %d, want %d", sp.Stats().Out(), len(seq))
	}
}

// TestMergeSeqZeroedOnRelease: sequence stamps are engine-internal and must
// not leak out of the region.
func TestMergeSeqZeroedOnRelease(t *testing.T) {
	group := func(e stream.Element) int64 { return e.Key }
	sp, mg, _ := buildRegion(2, 1, func(_ int, e stream.Element) int64 { return group(e) },
		func(int) Operator { return NewWindowAgg("a", AggSum, 500, group) })
	cap := &captureSink{}
	mg.Subscribe(cap, 0)
	driveOnes(sp, genSeq(xrand.New(3), 200, 1, false))
	sp.Done(0)
	for i, e := range cap.got {
		if e.Seq != 0 {
			t.Fatalf("output %d leaked Seq=%d", i, e.Seq)
		}
	}
	if len(cap.got) == 0 {
		t.Fatal("no output")
	}
}
