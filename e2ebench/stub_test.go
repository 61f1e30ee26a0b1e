package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stubDaemon answers the hmtsd protocol without doing any work: OK to
// every frame and command, DONE for each standing query after CLOSE.
func stubDaemon(t *testing.T, standing int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 256<<10)
		w := bufio.NewWriter(conn)
		next := standing
		body := make([]byte, 0, 1<<20)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			f := strings.Fields(line)
			switch {
			case f[0] == "PUSHB":
				n, _ := strconv.Atoi(f[2])
				body = body[:n*recordSize]
				if _, err := io.ReadFull(r, body); err != nil {
					return
				}
				fmt.Fprintf(w, "OK %d 0\n", n)
			case f[0] == "QUERY" && f[1] == "ADD":
				fmt.Fprintf(w, "OK %d\n", next)
				next++
			case f[0] == "QUERY" && f[1] == "DROP":
				fmt.Fprintf(w, "DONE %s\nOK dropped %s\n", f[2], f[2])
			case f[0] == "REBALANCE":
				fmt.Fprintf(w, "OK rebalanced\n")
			case f[0] == "METRICS":
				fmt.Fprintf(w, "INFO operators:\nOK metrics\n")
			case f[0] == "CLOSE":
				fmt.Fprintf(w, "OK closed ext\n")
				for id := 0; id < standing; id++ {
					fmt.Fprintf(w, "DONE %d\n", id)
				}
			case f[0] == "QUIT":
				fmt.Fprintf(w, "OK bye\n")
				w.Flush()
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// maxCapacity is the highest throughput hmtsd reached on any workload on
// the 2-vCPU reference host (sharded_agg, ~2.6M el/s); the generator must
// outpace it with headroom or the saturation phase would measure the
// client.
const maxCapacity = 2.6e6

// TestGeneratorOutpacesDaemon drives each workload's schedule against a
// stub that only answers OK: the paced phase must send every element on
// time at the workload's rate, and the unpaced phase must push well past
// the daemon's highest measured capacity. Under the race detector only
// the protocol is checked, not the timing.
func TestGeneratorOutpacesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	for _, name := range []string{"agg_results", "sharded_agg", "query_churn"} {
		w := workloads[name]
		ph := phases{warmup: 200 * time.Millisecond, latency: time.Second, tail: 400 * time.Millisecond, saturation: time.Second}
		p := newPlan(w, ph, false)
		conn, err := net.Dial("tcp", stubDaemon(t, p.standing))
		if err != nil {
			t.Fatal(err)
		}
		s := newSession(p, 1, conn, bufio.NewReaderSize(conn, 256<<10))
		start := mono()
		if err := s.run(os.Getpid(), 30*time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.Close()
		paced := float64(s.wr.satStart-start) / 1e9
		wantPaced := (ph.warmup + ph.latency + ph.tail).Seconds()
		if s.wr.satFirstElem != p.pacedN || (paced > wantPaced+0.1 && !raceEnabled) {
			t.Errorf("%s: paced phase sent %d of %d elements in %.3fs (schedule %.3fs)", name, s.wr.satFirstElem, p.pacedN, paced, wantPaced)
		}
		if d := ms(s.wr.genDelay.quantile(0.5)); d > 2*framePeriod.Seconds()*1e3 && !raceEnabled {
			t.Errorf("%s: median element waited %.2f ms for its frame, want at most two frame periods", name, d)
		}
		rate := float64(s.wr.satElements) / ph.saturation.Seconds()
		t.Logf("%s: paced %.0f el/s (target %.0f), generator p50 delay %.2f ms, late at most %.2f ms; unpaced %.2fM el/s",
			name, float64(p.pacedN)/paced, w.rateHz, ms(s.wr.genDelay.quantile(0.5)), ms(s.wr.genLateMax), rate/1e6)
		if rate < 1.5*maxCapacity && !raceEnabled {
			t.Errorf("%s: unpaced generator reached %.2fM el/s, want >= %.2fM (1.5x the highest daemon capacity)", name, rate/1e6, 1.5*maxCapacity/1e6)
		}
		if s.rd.accepted != uint64(s.wr.elements) {
			t.Errorf("%s: %d elements acknowledged of %d sent", name, s.rd.accepted, s.wr.elements)
		}
	}
}
