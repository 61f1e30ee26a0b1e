package main

import (
	"fmt"
	"math"
	"sort"
)

// windowNS is every workload's aggregate window (WINDOW 1s).
const windowNS = int64(1e9)

// checkReport is the reference checker's verdict on one run.
type checkReport struct {
	Expected int      `json:"expected"`
	Matched  int      `json:"matched"`
	Missing  int      `json:"missing"`
	Extra    int      `json:"extra"`
	Wrong    int      `json:"wrong"`
	Diffs    []string `json:"first_diffs,omitempty"`
}

func (c *checkReport) failures() int { return c.Missing + c.Extra + c.Wrong }

func (c *checkReport) note(format string, args ...any) {
	if len(c.Diffs) < 8 {
		c.Diffs = append(c.Diffs, fmt.Sprintf(format, args...))
	}
}

// keyWindow is the reference state of one group: its elements' values in
// quarters (the generator's values are multiples of 1/4, so sums are exact).
type keyWindow struct {
	ts    []int64
	q     []int64
	head  int
	sumQ  int64
	count int64
}

func (k *keyWindow) push(ts, q int64) {
	if k.head > 1024 && k.head*2 > len(k.ts) {
		k.ts = append(k.ts[:0], k.ts[k.head:]...)
		k.q = append(k.q[:0], k.q[k.head:]...)
		k.head = 0
	}
	k.ts = append(k.ts, ts)
	k.q = append(k.q, q)
	k.sumQ += q
	k.count++
}

func (k *keyWindow) expire(deadline int64) {
	for k.head < len(k.ts) && k.ts[k.head] <= deadline {
		k.sumQ -= k.q[k.head]
		k.count--
		k.head++
	}
}

// check recomputes every query's expected RESULT multiset from the first
// n elements of the seeded input — a per-key average over (ts-1s, ts] for
// elements with key < numKeys/2, then the query's HAVING key range — and
// compares it with what the daemon sent. Standing queries must match
// exactly; a churned query's results must all appear in its reference.
// Values must agree within 1e-9 relative.
func check(p *runPlan, seed uint64, n int64, results [][]result) checkReport {
	var rep checkReport
	for _, rs := range results {
		if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].ts < rs[j].ts }) {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].ts < rs[j].ts })
		}
	}
	byKey := make([][]int, numKeys)
	for id, q := range p.queries {
		for k := max(q.lo, 0); k <= min(q.hi, numKeys-1); k++ {
			byKey[k] = append(byKey[k], id)
		}
	}
	ptr := make([]int, len(results))
	wins := make([]keyWindow, numKeys/2)
	in := newInput(seed, p.spacing)
	for i := int64(0); i < n; i++ {
		ts, key, val := in.next()
		if key >= numKeys/2 {
			continue
		}
		w := &wins[key]
		w.expire(ts - windowNS)
		w.push(ts, int64(val*4))
		want := float64(w.sumQ) / 4 / float64(w.count)
		for _, id := range byKey[key] {
			if id >= len(results) {
				continue
			}
			rs := results[id]
			standing := !p.queries[id].churned
			if standing {
				rep.Expected++
			}
			for ptr[id] < len(rs) && rs[ptr[id]].ts < ts {
				rep.Extra++
				rep.note("query %d: unexpected result %v", id, rs[ptr[id]])
				ptr[id]++
			}
			if ptr[id] < len(rs) && rs[ptr[id]].ts == ts {
				got := rs[ptr[id]]
				ptr[id]++
				if got.key != key || !closeTo(got.val(), want) {
					rep.Wrong++
					rep.note("query %d ts %d: got key %d val %v, want key %d val %v", id, ts, got.key, got.val(), key, want)
				} else {
					rep.Matched++
				}
			} else if standing {
				rep.Missing++
				rep.note("query %d: missing result ts %d key %d", id, ts, key)
			}
		}
	}
	for id, rs := range results {
		for ; ptr[id] < len(rs); ptr[id]++ {
			rep.Extra++
			rep.note("query %d: unexpected result %v", id, rs[ptr[id]])
		}
	}
	return rep
}

func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
