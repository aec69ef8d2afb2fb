package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/benchfmt"
)

func rec(ns, allocs float64) benchfmt.Record {
	return benchfmt.Record{Benchmark: "engine/goroutines=1", NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	if fails := compare(rec(700, 0.01), rec(850, 0.02), 0, 0, 0.30, 0.05); len(fails) != 0 {
		t.Errorf("21%% regression within a 30%% budget failed: %v", fails)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	fails := compare(rec(700, 0.01), rec(1000, 0.01), 0, 0, 0.30, 0.05)
	if len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Errorf("43%% regression not caught: %v", fails)
	}
}

func TestCompareAllocRiseFails(t *testing.T) {
	fails := compare(rec(700, 0.01), rec(700, 0.5), 0, 0, 0.30, 0.05)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Errorf("alloc rise not caught: %v", fails)
	}
}

func TestCompareNormalizedAbsorbsHardwareDelta(t *testing.T) {
	// The fresh machine is 2× slower across the board: raw ns/op doubles
	// (a false regression), but dividing by the scan yardstick on each
	// side cancels the hardware difference.
	if fails := compare(rec(700, 0), rec(1400, 0), 80000, 160000, 0.30, 0.05); len(fails) != 0 {
		t.Errorf("normalization did not absorb a uniform slowdown: %v", fails)
	}
	// A genuine 2× regression of the engine alone still fails normalized.
	if fails := compare(rec(700, 0), rec(1400, 0), 80000, 80000, 0.30, 0.05); len(fails) != 1 {
		t.Errorf("normalized genuine regression not caught: %v", fails)
	}
}

func TestCappedRowRefusedWithoutEscape(t *testing.T) {
	honest := benchfmt.Record{Benchmark: "engine/goroutines=8", Goroutines: 8, GOMAXPROCS: 8}
	capped := benchfmt.Record{Benchmark: "engine/goroutines=8", Goroutines: 8, GOMAXPROCS: 4, Capped: true}
	under := benchfmt.Record{Benchmark: "engine/goroutines=8", Goroutines: 8, GOMAXPROCS: 2}
	legacy := benchfmt.Record{Benchmark: "engine/goroutines=8", Goroutines: 8} // pre-gomaxprocs snapshot

	if skip, err := cappedRow(honest, honest, false); err != nil || skip != "" {
		t.Errorf("honest pair flagged: skip=%q err=%v", skip, err)
	}
	if skip, err := cappedRow(legacy, legacy, false); err != nil || skip != "" {
		t.Errorf("legacy pair without per-row procs flagged: skip=%q err=%v", skip, err)
	}
	for _, pair := range [][2]benchfmt.Record{{honest, capped}, {capped, honest}, {under, under}} {
		if _, err := cappedRow(pair[0], pair[1], false); err == nil {
			t.Errorf("capped pair %+v not refused", pair)
		}
		skip, err := cappedRow(pair[0], pair[1], true)
		if err != nil || !strings.Contains(skip, "skipping") {
			t.Errorf("-allow-capped did not downgrade to a skip: skip=%q err=%v", skip, err)
		}
	}
}

// TestGateEndToEnd runs the built gate against the checked-in baseline
// compared with itself (trivially clean) and with a doctored regression.
func TestGateEndToEnd(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_engine.json")
	if _, err := os.Stat(baseline); err != nil {
		t.Skipf("baseline snapshot not present: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "benchdiff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// The gate list CI runs (ci.yml, bench-gate), with its -allow-capped:
	// the greedy engine and the extended-schema policy rows.
	gated := "engine/goroutines=1,policy-capacity/goroutines=1,policy-batchopt/goroutines=1,policy-batchopt/goroutines=4,policy-batchopt/goroutines=8,policy-batchopt-cap4/goroutines=1"
	clean := exec.Command(bin, "-base", baseline, "-new", baseline,
		"-bench", gated, "-normalize", "scan/goroutines=1", "-allow-capped")
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, out)
	}

	blob, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// Make the gated engine benchmark 10× slower in a doctored snapshot.
	doctor := func(t *testing.T, bench string) string {
		t.Helper()
		var r benchfmt.Report
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		found := false
		for i := range r.Results {
			if r.Results[i].Benchmark == bench {
				r.Results[i].NsPerOp *= 10
				found = true
			}
		}
		if !found {
			t.Fatalf("baseline lacks %q", bench)
		}
		out, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doctored.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base benchfmt.Report
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	for _, bench := range strings.Split(gated, ",") {
		if rec, _ := base.Find(bench); rec.Capped {
			continue // skipped by -allow-capped, loudly: nothing to regress
		}
		bad := doctor(t, bench)
		gate := exec.Command(bin, "-base", baseline, "-new", bad,
			"-bench", gated, "-normalize", "scan/goroutines=1", "-allow-capped")
		out, err := gate.CombinedOutput()
		if err == nil {
			t.Fatalf("10× regression of %s passed the gate:\n%s", bench, out)
		}
		if !strings.Contains(string(out), "FAIL") {
			t.Fatalf("gate failed without explanation:\n%s", out)
		}
	}

	// A gated row marked capped must be refused, and -allow-capped must
	// downgrade the refusal to a warn-and-skip.
	{
		var r benchfmt.Report
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		for i := range r.Results {
			if r.Results[i].Benchmark == "engine/goroutines=1" {
				r.Results[i].Capped = true
			}
		}
		out, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		capped := filepath.Join(t.TempDir(), "capped.json")
		if err := os.WriteFile(capped, out, 0o644); err != nil {
			t.Fatal(err)
		}
		refuse := exec.Command(bin, "-base", baseline, "-new", capped, "-bench", gated,
			"-normalize", "scan/goroutines=1")
		if msg, err := refuse.CombinedOutput(); err == nil {
			t.Fatalf("capped gated row passed without -allow-capped:\n%s", msg)
		}
		allow := exec.Command(bin, "-base", baseline, "-new", capped, "-bench", gated,
			"-normalize", "scan/goroutines=1", "-allow-capped")
		msg, err := allow.CombinedOutput()
		if err != nil {
			t.Fatalf("-allow-capped still refused: %v\n%s", err, msg)
		}
		if !strings.Contains(string(msg), "WARN") {
			t.Fatalf("-allow-capped skipped silently:\n%s", msg)
		}
	}

	// A snapshot of a different workload must be refused outright: the scan
	// yardstick absorbs hardware deltas, not pool-size deltas.
	mismatched := strings.Replace(string(blob), `"workers": 16384`, `"workers": 4000`, 1)
	if mismatched == string(blob) {
		t.Skip("baseline layout changed; update the workload substitution")
	}
	mis := filepath.Join(t.TempDir(), "mismatch.json")
	if err := os.WriteFile(mis, []byte(mismatched), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-base", baseline, "-new", mis).CombinedOutput()
	if err == nil {
		t.Fatalf("workload mismatch passed the gate:\n%s", out)
	}
	if !strings.Contains(string(out), "workload mismatch") {
		t.Fatalf("mismatch refused without explanation:\n%s", out)
	}
}

// TestNormalizerMissingOrZeroFatal pins the yardstick contract: a missing
// normalizer row and a zero (or negative) ns/op both fail loudly instead
// of silently disabling normalization.
func TestNormalizerMissingOrZeroFatal(t *testing.T) {
	report := &benchfmt.Report{Results: []benchfmt.Record{
		{Benchmark: "scan/goroutines=1", NsPerOp: 80000},
		{Benchmark: "scan/goroutines=2", NsPerOp: 0},
		{Benchmark: "scan/goroutines=4", NsPerOp: -5},
	}}
	ns, err := normalizerNs(report, "scan/goroutines=1", "BENCH.json")
	if err != nil || ns != 80000 {
		t.Fatalf("healthy normalizer: ns=%g err=%v", ns, err)
	}
	if _, err := normalizerNs(report, "absent/goroutines=1", "BENCH.json"); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing normalizer row not fatal: %v", err)
	}
	for _, name := range []string{"scan/goroutines=2", "scan/goroutines=4"} {
		if _, err := normalizerNs(report, name, "BENCH.json"); err == nil ||
			!strings.Contains(err.Error(), "cannot normalize") {
			t.Fatalf("%s: non-positive normalizer not fatal: %v", name, err)
		}
	}
}
