package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI drives the built binary: a figure run prints its table, a run
// that fails still leaves its profile behind, an unknown -format is refused
// rather than printed as text, so is input the run would ignore (a -repeat
// below 1, -svg without -out, two modes at once), and the flags of the deleted
// engine-bench lane, -procs, and the suites of the deleted engine soak lane
// are gone rather than silently accepted.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pombm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		return o.String(), e.String(), cmd.ProcessState.ExitCode()
	}

	t.Run("figure", func(t *testing.T) {
		stdout, stderr, code := run("-exp", "table1", "-quick")
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr)
		}
		if !strings.Contains(stdout, "table1") || strings.Count(stdout, "\n") < 3 {
			t.Errorf("no table on stdout:\n%s", stdout)
		}
	})

	t.Run("failing run keeps its profile", func(t *testing.T) {
		_, stderr, code := run("-exp", "nosuch", "-mutexprofile", "m.pprof")
		if code != 1 || !strings.Contains(stderr, "pombm-bench: nosuch:") {
			t.Fatalf("exit %d, want 1 with a pombm-bench: message\n%s", code, stderr)
		}
		if fi, err := os.Stat(filepath.Join(dir, "m.pprof")); err != nil || fi.Size() == 0 {
			t.Errorf("mutex profile of the failing run missing or empty: %v", err)
		}
	})

	t.Run("unknown format is refused", func(t *testing.T) {
		stdout, stderr, code := run("-exp", "table1", "-quick", "-format", "bogus")
		if code != 2 || stdout != "" || !strings.Contains(stderr, `pombm-bench: unknown -format "bogus"`) {
			t.Errorf("exit %d, want 2 naming the format and no table\n%s%s", code, stdout, stderr)
		}
	})

	// Input the run would otherwise ignore is refused before anything runs.
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"negative repeat", []string{"-exp", "table1", "-quick", "-repeat", "-3"}, "pombm-bench: -repeat must be ≥ 1 (got -3)"},
		{"svg without out", []string{"-exp", "table1", "-quick", "-svg"}, "pombm-bench: -svg writes its charts into -out"},
		{"soak beside exp", []string{"-soak", "platform-100k", "-exp", "table1"}, "pombm-bench: -soak, -instance, -list and -exp each pick what runs"},
		{"instance beside exp", []string{"-instance", "x.csv", "-exp", "table1"}, "pombm-bench: -soak, -instance, -list and -exp each pick what runs"},
		{"procs is gone", []string{"-procs", "2", "-exp", "table1", "-quick"}, "flag provided but not defined: -procs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(c.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
				t.Errorf("%v: exit %d, want 2 with %q and nothing run\n%s%s", c.args, code, c.want, stdout, stderr)
			}
		})
	}

	t.Run("enginebench is gone", func(t *testing.T) {
		_, stderr, code := run("-enginebench")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("exit %d, want 2 as an unknown flag\n%s", code, stderr)
		}
	})

	t.Run("engine soak suites are gone", func(t *testing.T) {
		_, stderr, code := run("-soak", "smoke-100k")
		if code != 1 || !strings.Contains(stderr, `unknown soak suite "smoke-100k" (have platform-100k, platform-1m, platform-10m)`) {
			t.Errorf("exit %d, want 1 naming the three platform suites\n%s", code, stderr)
		}
	})
}

// TestSoakGates runs the soak lane in-process on a suite small enough for
// every push, checks that its report carries each reading a gate stands on,
// and then lowers each of the suite's ceilings below what the run read:
// the run must refuse with that gate's message.
func TestSoakGates(t *testing.T) {
	suite := soakSuite{Name: "test-2k", Workers: 2_000, Ticks: 2, AssignsPerTick: 64, MovesPerTick: 16, Rotations: 3}
	run := func(s soakSuite) (soakReport, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "soak.json")
		if err := runPlatformSoak(s, 16, 1, path); err != nil {
			return soakReport{}, err
		}
		var rep soakReport
		blob, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(blob, &rep)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep, nil
	}
	rep, err := run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != suite.Rotations || rep.LoadArenaBytes == 0 || rep.ArenaBytes == 0 || rep.MaxArenaBytesPerWorker == 0 ||
		rep.GCPauses.Count == 0 || rep.RotatePeakExtraBytes == 0 || rep.RotatePeakExtraRatio == 0 {
		t.Fatalf("report is missing a reading: %d epochs, load arenas %d B, steady arenas %d B (at most %.2f B/worker), %d GC pauses, rotation peak %d B = %.2fx",
			len(rep.Epochs), rep.LoadArenaBytes, rep.ArenaBytes, rep.MaxArenaBytesPerWorker, rep.GCPauses.Count,
			rep.RotatePeakExtraBytes, rep.RotatePeakExtraRatio)
	}

	// Every rotation holds its new slot table beside the old one, so the
	// smallest epoch's ratio halved is below whatever a rerun reads.
	lowestPeak := rep.RotatePeakExtraRatio
	for _, e := range rep.Epochs {
		if e.RotatePeakExtraRatio == 0 {
			t.Fatalf("epoch %d read no rotation peak", e.Epoch)
		}
		lowestPeak = min(lowestPeak, e.RotatePeakExtraRatio)
	}
	for _, c := range []struct {
		name  string
		lower func(*soakSuite)
		want  string
	}{
		{"arena ceiling", func(s *soakSuite) { s.ArenaCeiling = rep.MaxArenaBytesPerWorker / 2 }, "B/worker, the suite's ceiling is"},
		{"peak ceiling", func(s *soakSuite) { s.PeakCeiling = lowestPeak / 2 }, "its arenas and registry, the suite's ceiling is"},
	} {
		s := suite
		c.lower(&s)
		if _, err := run(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s below the run's reading: got %v, want a refusal containing %q", c.name, err, c.want)
		}
	}
}
