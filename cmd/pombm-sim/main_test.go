package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// TestReportsGolden drives the built binary over every preset with
// -crosscheck, for each driver under the presets' own policies and under
// each policy override, and compares the sha256 of each canonical -json
// report to testdata/golden.txt. It is the byte-identity check a change to
// the engine, the platform or the cluster has to pass; `go test
// ./cmd/pombm-sim -update` rewrites the table.
func TestReportsGolden(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pombm-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var table strings.Builder
	for _, driver := range []string{"engine", "platform", "cluster"} {
		for _, policy := range []string{"preset", "greedy", "capacity-greedy", "batch-optimal"} {
			args := []string{"-scenario", "all", "-json", "-crosscheck", "-driver", driver}
			if policy != "preset" {
				args = append(args, "-policy", policy)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			fmt.Fprintf(&table, "%s %s %s\n", driver, policy, hex.EncodeToString(sum[:]))
		}
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := table.String(); got != string(want) {
		t.Errorf("report hashes moved:\n got:\n%s golden:\n%s", got, want)
	}
}
