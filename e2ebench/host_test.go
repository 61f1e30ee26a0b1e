package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeRecord(t *testing.T, dir, name string, rec runRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRefusesOtherHosts: records from different hosts are not
// compared (exit 3, not the regression exit 1); same-host records are
// compared against BENCHMARK.json's bounds.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	host := hostStamp{NProc: 2, ClientGOMAXPROCS: 2, DaemonGOMAXPROCS: 2, CPUModel: "cpu A", GoVersion: "go1.24.0"}
	metrics := func(cpu float64) map[string]metricVal {
		return map[string]metricVal{
			"cpu_ns_per_el": {cpu, "ns"}, "paced_cpu_ns_per_el": {2000, "ns"},
			"rss_peak_mb": {40, "MB"}, "setup_s": {0.005, "s"},
		}
	}
	base := writeRecord(t, dir, "base.json", runRecord{Workload: "agg_results", Host: host, Metrics: metrics(1000)})
	other := host
	other.NProc, other.CPUModel = 1, "cpu B"
	moved := writeRecord(t, dir, "moved.json", runRecord{Workload: "agg_results", Host: other, Metrics: metrics(1000)})
	same := writeRecord(t, dir, "same.json", runRecord{Workload: "agg_results", Host: host, Metrics: metrics(1010)})
	slower := writeRecord(t, dir, "slower.json", runRecord{Workload: "agg_results", Host: host, Metrics: metrics(2000)})

	if got := compareRecords("../BENCHMARK.json", base, moved); got != exitHostMismatch {
		t.Errorf("different hosts: exit %d, want %d", got, exitHostMismatch)
	}
	if got := compareRecords("../BENCHMARK.json", base, same); got != 0 {
		t.Errorf("same host, within bounds: exit %d, want 0", got)
	}
	if got := compareRecords("../BENCHMARK.json", base, slower); got != 1 {
		t.Errorf("same host, 2x CPU per element: exit %d, want 1", got)
	}
}
