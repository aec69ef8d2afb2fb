package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI drives the built binary: a figure run prints its table, a run
// that fails still leaves its profile behind, and the flags of the deleted
// engine-bench lane are gone rather than silently accepted.
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

	t.Run("enginebench is gone", func(t *testing.T) {
		_, stderr, code := run("-enginebench")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("exit %d, want 2 as an unknown flag\n%s", code, stderr)
		}
	})
}
