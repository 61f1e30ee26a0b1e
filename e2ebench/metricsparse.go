package main

import (
	"fmt"
	"strconv"
	"strings"
)

// snapshot is one parsed METRICS reply (the INFO lines of
// hmts.Metrics.String).
type snapshot struct {
	ops     []opStat
	queues  []queueStat
	ingest  []ingestStat
	shards  []shardStat
	queries []queryStat
}

type opStat struct {
	name    string
	in, out uint64
	costNS  float64
}

type queueStat struct {
	name                                  string
	maxLen                                int64
	enq, fullBlocks, blockedMS, overshoot uint64
}

type ingestStat struct {
	name              string
	accepted, dropped uint64
	maxLen            int64
	lagNS             int64
}

type shardStat struct {
	name string
	skew float64
	in   []uint64
}

type queryStat struct {
	name                 string
	ops, shared, private int
	out                  uint64
}

// fieldsAfter splits a section line into its name (everything before the
// first " <first>=") and its key=value pairs. Operator and queue names may
// contain spaces; values never do.
func fieldsAfter(line, first string) (string, map[string]string, bool) {
	i := strings.Index(line, " "+first+"=")
	if i < 0 {
		return "", nil, false
	}
	kv := make(map[string]string)
	rest := line[i+1:]
	// shards print in=[a b c]; take the bracketed list whole.
	if j := strings.Index(rest, "in=["); j >= 0 {
		if k := strings.IndexByte(rest[j:], ']'); k >= 0 {
			kv["in"] = rest[j+4 : j+k]
			rest = rest[:j] + rest[j+k+1:]
		}
	}
	for _, f := range strings.Fields(rest) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if _, dup := kv[k]; !dup {
				kv[k] = v
			}
		}
	}
	return strings.TrimSpace(line[:i]), kv, true
}

func num(kv map[string]string, k string) float64 {
	v := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(kv[k], "/s"), "ms"), "ns")
	f, _ := strconv.ParseFloat(v, 64)
	return f
}

// parseMetrics parses the INFO payloads (without the "INFO " prefix).
func parseMetrics(lines []string) (*snapshot, error) {
	s := &snapshot{}
	section := ""
	for _, line := range lines {
		if strings.HasPrefix(line, "virtual operators:") {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		var first string
		switch section {
		case "operators":
			first = "in"
		case "queues":
			first = "len"
		case "ingest":
			first = "accepted"
		case "shards":
			first = "n"
		case "queries":
			first = "ops"
		default:
			return nil, fmt.Errorf("METRICS: unknown section %q", section)
		}
		name, kv, ok := fieldsAfter(line, first)
		if !ok {
			return nil, fmt.Errorf("METRICS: malformed %s line %q", section, line)
		}
		switch section {
		case "operators":
			s.ops = append(s.ops, opStat{name: name, in: uint64(num(kv, "in")), out: uint64(num(kv, "out")), costNS: num(kv, "cost")})
		case "queues":
			s.queues = append(s.queues, queueStat{name: name, maxLen: int64(num(kv, "max")), enq: uint64(num(kv, "enq")),
				fullBlocks: uint64(num(kv, "blocks")), blockedMS: uint64(num(kv, "blockedms")), overshoot: uint64(num(kv, "over"))})
		case "ingest":
			s.ingest = append(s.ingest, ingestStat{name: name, accepted: uint64(num(kv, "accepted")), dropped: uint64(num(kv, "dropped")),
				maxLen: int64(num(kv, "max")), lagNS: int64(num(kv, "lag"))})
		case "shards":
			sh := shardStat{name: name, skew: num(kv, "skew")}
			for _, f := range strings.Fields(kv["in"]) {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("METRICS: bad shard input count %q", f)
				}
				sh.in = append(sh.in, v)
			}
			s.shards = append(s.shards, sh)
		case "queries":
			s.queries = append(s.queries, queryStat{name: name, ops: int(num(kv, "ops")), shared: int(num(kv, "shared")),
				private: int(num(kv, "private")), out: uint64(num(kv, "out"))})
		}
	}
	return s, nil
}

// opClass names the layer an operator belongs to, from the names ql and
// the shard rewrite give them.
func opClass(name string) string {
	switch {
	case strings.HasPrefix(name, "where "):
		return "filter"
	case strings.HasPrefix(name, "having "):
		return "having"
	case strings.HasSuffix(name, "/split"):
		return "split"
	case strings.HasSuffix(name, "/merge"):
		return "merge"
	case strings.Contains(name, "#"):
		return "replica"
	case strings.HasPrefix(name, "avg("):
		return "agg"
	}
	return "other"
}
