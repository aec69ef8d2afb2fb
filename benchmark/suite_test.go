package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The whole suite under -quick, untraced and traced: every workload must
// verify, and every declared metric must be reported. Skipped under
// -short, so a plain `go test ./...` in this directory keeps the benchmark
// compiling and its checks live.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	t.Chdir(t.TempDir()) // the traced run writes benchmark/out/ under the working directory
	for _, traced := range []bool{false, true} {
		res, err := runSuite(specs, config{seed: 3, seconds: 1, reps: 1, clients: 2, trace: traced, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v, %d failed of %d", traced, res.Correct, res.Failed, res.Attempted)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, sp := range specs {
			for _, m := range defs {
				v, ok := res.Metrics[sp.name+"/"+m.name]
				if !ok {
					t.Errorf("traced=%v: %s/%s is not reported", traced, sp.name, m.name)
				} else if !traced && v.Value <= 0 {
					t.Errorf("end-to-end metric %s/%s reads %v; it must never be 0", sp.name, m.name, v.Value)
				}
			}
		}
		if traced {
			for _, sp := range specs {
				if _, err := os.Stat("benchmark/out/trace-" + sp.name + ".jsonl"); err != nil {
					t.Errorf("no trace written for %s: %v", sp.name, err)
				}
			}
			// The account closes on serve-lifecycle: what the layers charge
			// adds up to what the requester saw.
			m := func(name string) float64 { return res.Metrics["serve-lifecycle/"+name].Value }
			if m("platform.transport_us") <= 0 || m("platform.submit_self_us") <= 0 || m("engine.assign_ns") <= 0 {
				t.Errorf("serve-lifecycle layers not priced: transport %v, submit self %v, assign %v",
					m("platform.transport_us"), m("platform.submit_self_us"), m("engine.assign_ns"))
			}
		}
	}
}

func TestCheckResults(t *testing.T) {
	mk := func(tput, p50 float64) *result {
		return &result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"engine-churn/task_tput_per_s": {Value: tput, Unit: "1/s"},
			"engine-churn/task_p50_us":     {Value: p50, Unit: "us"},
			"engine-churn/hst.pop_ns":      {Value: 1, Unit: "ns"}, // per-layer: no bound, ignored
		}}
	}
	sink := io.Discard
	if bad := checkResults(mk(100, 10), mk(80, 12), sink); bad != 0 {
		t.Errorf("20 %% worse on both metrics is within the 25 %% bounds, got %d failures", bad)
	}
	if bad := checkResults(mk(100, 10), mk(70, 10), sink); bad != 1 {
		t.Errorf("throughput 30 %% lower must fail alone, got %d failures", bad)
	}
	if bad := checkResults(mk(100, 10), mk(140, 13), sink); bad != 1 {
		t.Errorf("p50 30 %% higher must fail and higher throughput must not, got %d failures", bad)
	}
	b := mk(100, 10)
	delete(b.Metrics, "engine-churn/task_p50_us")
	if bad := checkResults(mk(100, 10), b, sink); bad != 1 {
		t.Errorf("a metric missing from the second file must fail, got %d", bad)
	}
}

// BENCHMARK.json at the repository root repeats the tables in main.go and
// tape.go; the driver reads the file, the program the tables.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, the program has %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: declared %+v, the program has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, g.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
