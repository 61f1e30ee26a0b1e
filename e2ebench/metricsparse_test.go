package main

import (
	"strings"
	"testing"
)

// metricsSample is a METRICS reply captured from hmtsd running a sharded
// aggregate and an unsharded one side by side, "INFO " prefixes removed.
const metricsSample = `operators:
  avg(val)         in=1672       out=1672       sel=1.0000 cost=502ns d=1159ns
  avg(val)#0       in=832        out=832        sel=1.0000 cost=517ns d=2201ns
  avg(val)#1       in=840        out=840        sel=1.0000 cost=599ns d=2380ns
  avg(val)/merge   in=1672       out=1672       sel=1.0000 cost=81ns d=2263ns
  avg(val)/split   in=1672       out=1672       sel=1.0000 cost=121ns d=1159ns
  having (key = 3) in=1672       out=3          sel=0.0018 cost=37ns d=1159ns
  having (key >= 460) in=1672       out=132        sel=0.0789 cost=118ns d=1143ns
  where (key < 500) in=2000       out=1672       sel=0.8360 cost=555ns d=1000ns
queues:
  q(ext->where (key < 500))    len=0        max=1024     enq=2000       deq=2000       blocks=1        blockedms=0        over=0      closed=false
  q(avg(val)/split->avg(val)#0) len=0        max=832      enq=832        deq=832        blocks=0        blockedms=0        over=0      closed=false
  q(avg(val)/split->avg(val)#1) len=0        max=840      enq=840        deq=840        blocks=0        blockedms=0        over=0      closed=false
  q(avg(val)#0->avg(val)/merge) len=0        max=832      enq=832        deq=832        blocks=0        blockedms=0        over=0      closed=false
  q(avg(val)#1->avg(val)/merge) len=0        max=840      enq=840        deq=840        blocks=0        blockedms=0        over=0      closed=false
ingest:
  ext              accepted=2000       dropped=0          len=0      cap=4096   max=2000   lag=0          policy=block shed=false closed=false
shards:
  avg(val)         n=2   skew=1.00 retained=1672     pauseest=2.3ms in=[832 840]
queries:
  q0               ops=6    shared=1    private=5    out=132        rate=460082.6/s
  q1               ops=3    shared=1    private=2    out=3          rate=3479.0/s
virtual operators: [[0] [1 3 9 10] [4 7] [5] [6]]`

func TestParseMetricsSample(t *testing.T) {
	s, err := parseMetrics(strings.Split(metricsSample, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ops) != 8 || len(s.queues) != 5 || len(s.ingest) != 1 || len(s.shards) != 1 || len(s.queries) != 2 {
		t.Fatalf("section sizes: ops %d queues %d ingest %d shards %d queries %d",
			len(s.ops), len(s.queues), len(s.ingest), len(s.shards), len(s.queries))
	}
	if o := s.ops[6]; o.name != "having (key >= 460)" || o.in != 1672 || o.out != 132 || o.costNS != 118 {
		t.Errorf("operator with spaces in its name: %+v", o)
	}
	if q := s.queues[0]; q.name != "q(ext->where (key < 500))" || q.maxLen != 1024 || q.enq != 2000 || q.fullBlocks != 1 {
		t.Errorf("queue: %+v", q)
	}
	if in := s.ingest[0]; in.accepted != 2000 || in.dropped != 0 || in.maxLen != 2000 || in.lagNS != 0 {
		t.Errorf("ingest: %+v", in)
	}
	if sh := s.shards[0]; sh.skew != 1.0 || len(sh.in) != 2 || sh.in[0] != 832 || sh.in[1] != 840 {
		t.Errorf("shard: %+v", sh)
	}
	if q := s.queries[0]; q.name != "q0" || q.ops != 6 || q.shared != 1 || q.private != 5 || q.out != 132 {
		t.Errorf("query: %+v", q)
	}
	classes := map[string]int{}
	for _, o := range s.ops {
		classes[opClass(o.name)]++
	}
	want := map[string]int{"agg": 1, "replica": 2, "merge": 1, "split": 1, "having": 2, "filter": 1}
	for c, n := range want {
		if classes[c] != n {
			t.Errorf("class %s: %d operators, want %d (all: %v)", c, classes[c], n, classes)
		}
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics([]string{"operators:", "  no fields here"}); err == nil {
		t.Fatal("a malformed operator line must be an error")
	}
	if _, err := parseMetrics([]string{"mystery:", "  x in=1"}); err == nil {
		t.Fatal("an unknown section must be an error")
	}
}
