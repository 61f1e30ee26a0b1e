package main

import (
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units, same order for the
// per-layer list.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(workloads["agg_results"], phasesFor(2), false)
	printed := (&tcpRun{plan: p, s: newSession(p, 1, nil, nil)}).endToEnd()
	if len(printed) != len(spec.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(printed), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayerSpec) != len(spec.PerLayer) {
		t.Fatalf("program reports %d per-layer metrics, BENCHMARK.json lists %d", len(perLayerSpec), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayerSpec[i].name != m.Name || perLayerSpec[i].unit != m.Unit {
			t.Errorf("per-layer %d: program %v, BENCHMARK.json %s (%s)", i, perLayerSpec[i], m.Name, m.Unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}
