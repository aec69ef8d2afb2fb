package sim

import (
	"bytes"
	"testing"
)

// TestClusterDriverMatchesPlatform is the multi-node determinism contract:
// every preset, run through a 3-backend coordinator, produces zero
// crosscheck violations and a byte-identical canonical report to the
// single-process platform driver (driver tag aside). epoch-rotate runs
// long enough to cross a rotation boundary, so at least one distributed
// two-phase rotation is inside the pinned bytes.
func TestClusterDriverMatchesPlatform(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			duration := 180.0
			if name == "epoch-rotate" {
				duration = 660 // two rotations (RotateEvery 300)
			}
			sc := shortPreset(t, name, duration)
			ref, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: DriverPlatform})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: DriverCluster, CrossCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			if got.Check == nil || got.Check.Checked == 0 {
				t.Fatal("cluster crosscheck observed nothing")
			}
			if got.Check.Violations != 0 {
				t.Errorf("%d violations of %d checked: %v", got.Check.Violations, got.Check.Checked, got.Check.Samples)
			}
			if !got.Check.PoolConsistent {
				t.Error("cluster pool size diverged from the sequential reference")
			}
			if name == "epoch-rotate" && (got.Epochs == nil || got.Epochs.Rotations == 0) {
				t.Error("epoch-rotate run crossed no rotation boundary")
			}
			ref.Driver, got.Driver = "", ""
			ref.Check = nil
			got.Check = nil
			b1, err := ref.JSON()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("cluster report diverged from platform driver:\n%s\n---\n%s", b1, b2)
			}
		})
	}
}

// TestClusterDriverNodeCounts pins the answer against the backend count:
// sharding across 1, 2, 3, or 5 nodes must not change a single byte of the
// single-process report.
func TestClusterDriverNodeCounts(t *testing.T) {
	sc := shortPreset(t, "batch-heavy", 180)
	ref, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: DriverPlatform})
	if err != nil {
		t.Fatal(err)
	}
	bref, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 5} {
		got, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: DriverCluster, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		got.Driver = ref.Driver
		bgot, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bref, bgot) {
			t.Errorf("%d nodes: report diverged from platform driver", nodes)
		}
	}
}
