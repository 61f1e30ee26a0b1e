package main

import "time"

// cmdKind tags a command awaiting its OK/ERR reply.
type cmdKind uint8

const (
	kFrame cmdKind = iota
	kAdd
	kDrop
	kRebalance
	kMetrics
	kClose
	kQuit
)

var kindNames = [...]string{"frame", "query_add", "query_drop", "rebalance", "metrics", "close", "quit"}

func (k cmdKind) String() string { return kindNames[k] }

// event is one command of the paced phase, at an offset from its start.
type event struct {
	at   time.Duration
	kind cmdKind
	qid  int
}

// runPlan is the deterministic schedule of one run. Query ids are assigned
// by hmtsd in QUERY ADD order, so the plan knows every id before it is
// sent and the reader can file a RESULT that overtakes its QUERY ADD's OK.
type runPlan struct {
	w        *workload
	ph       phases
	spacing  int64
	queries  []query // by id
	standing int     // ids [0, standing) are registered before START
	events   []event
	// postMut[ms] marks the paced-phase milliseconds within postMutation
	// after a scheduled mutation (query_churn only).
	postMut []bool
	// Element index bounds: [0, warmN) warm-up, [warmN, warmN+measN) the
	// measured latency window, [.., pacedN) the probe tail.
	warmN, measN, pacedN int64
	traced               bool
}

func newPlan(w *workload, ph phases, traced bool) *runPlan {
	p := &runPlan{w: w, ph: ph, spacing: w.spacing(), traced: traced}
	p.queries = append(p.queries, w.standing...)
	p.standing = len(p.queries)
	p.warmN = int64(ph.warmup) / p.spacing
	p.measN = int64(ph.latency) / p.spacing
	paced := ph.warmup + ph.latency + ph.tail
	p.pacedN = int64(paced) / p.spacing
	add := func(at time.Duration, q query) int {
		p.queries = append(p.queries, q)
		id := len(p.queries) - 1
		p.events = append(p.events, event{at: at, kind: kAdd, qid: id})
		return id
	}
	measEnd := ph.warmup + ph.latency
	if w.churn {
		prev := -1
		m := int64(0)
		for at := ph.warmup; at < measEnd; at += churnEvery {
			if at > ph.warmup && (at-ph.warmup)%rebalanceEvery == 0 {
				p.events = append(p.events, event{at: at, kind: kRebalance})
			}
			id := add(at, keyQuery(churnCount+m%(numKeys/2-churnCount), true))
			m++
			if prev >= 0 {
				p.events = append(p.events, event{at: at, kind: kDrop, qid: prev})
			}
			prev = id
		}
		if prev >= 0 {
			p.events = append(p.events, event{at: measEnd, kind: kDrop, qid: prev})
		}
		p.postMut = make([]bool, int(paced/time.Millisecond)+1)
		for _, ev := range p.events {
			for t := ev.at; t < ev.at+postMutation && int(t/time.Millisecond) < len(p.postMut); t += time.Millisecond {
				p.postMut[t/time.Millisecond] = true
			}
		}
	} else {
		step := ph.tail / (probePairs + 1)
		for k := 0; k < probePairs; k++ {
			at := measEnd + time.Duration(k)*step
			id := add(at, w.probeQuery())
			p.events = append(p.events, event{at: at + step/2, kind: kDrop, qid: id})
		}
	}
	return p
}
