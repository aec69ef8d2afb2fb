package pombm_test

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// binaryModes is every binary under cmd/ and its modes, in usage order.
var binaryModes = map[string][]string{
	"pombm-bench":  {"list", "fig", "instance", "soak", "gen", "tree"},
	"pombm-sim":    {"list", "run"},
	"pombm-server": {"serve", "coord"},
}

var (
	usageMode = regexp.MustCompile(`(?m)^  (\w+) `)
	usageFlag = regexp.MustCompile(`(?m)^  -(\S+)`)
)

// cliBinaries builds every binary once into dir and reads back, from each
// binary's own usage, its modes and each mode's flags: bin → mode → flag.
func cliBinaries(t *testing.T, dir string) map[string]map[string]map[string]bool {
	t.Helper()
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var bins []string
	for _, e := range entries {
		bins = append(bins, e.Name())
	}
	if want := slices.Sorted(maps.Keys(binaryModes)); !slices.Equal(bins, want) {
		t.Fatalf("cmd/ holds %v, want %v", bins, want)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	flags := map[string]map[string]map[string]bool{}
	for _, bin := range bins {
		path := filepath.Join(dir, bin)
		stdout, stderr, code := runCLI(t, path)
		modes := []string{}
		for _, m := range usageMode.FindAllStringSubmatch(stderr, -1) {
			modes = append(modes, m[1])
		}
		if code != 2 || stdout != "" || !reflect.DeepEqual(modes, binaryModes[bin]) {
			t.Fatalf("%s with no mode: exit %d, modes %v; want 2 and usage listing %v\n%s%s", bin, code, modes, binaryModes[bin], stdout, stderr)
		}
		flags[bin] = map[string]map[string]bool{}
		for _, mode := range modes {
			stdout, stderr, code := runCLI(t, path, mode, "-h")
			if code != 0 || stdout != "" || !strings.Contains(stderr, "usage: "+bin+" "+mode) {
				t.Fatalf("%s %s -h: exit %d, want 0 and the mode's usage\n%s%s", bin, mode, code, stdout, stderr)
			}
			flags[bin][mode] = map[string]bool{}
			for _, f := range usageFlag.FindAllStringSubmatch(stderr, -1) {
				flags[bin][mode][f[1]] = true
			}
		}
	}
	return flags
}

func runCLI(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = t.TempDir(), &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// TestEveryModeReadsOnlyItsFlags runs every mode of every binary with -h,
// with a flag no mode defines, and with each flag another mode of the same
// binary defines and it does not: the first prints the mode's usage and
// exits 0, the others exit 2 with the mode's usage before anything runs,
// so no flag is ever silently ignored. Nothing here opens a listener.
func TestEveryModeReadsOnlyItsFlags(t *testing.T) {
	dir := t.TempDir()
	binFlags := cliBinaries(t, dir)
	refused := func(bin, mode string, args ...string) {
		t.Helper()
		stdout, stderr, code := runCLI(t, filepath.Join(dir, bin), append([]string{mode}, args...)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: "+bin+" "+mode) {
			t.Errorf("%s %s %v: exit %d, want 2 with the mode's usage and nothing run\n%s%s", bin, mode, args, code, stdout, stderr)
		}
	}
	foreign := 0
	for bin, modes := range binFlags {
		all := map[string]bool{}
		for _, own := range modes {
			maps.Copy(all, own)
		}
		for mode, own := range modes {
			refused(bin, mode, "-no-such-flag")
			for f := range all {
				if !own[f] {
					foreign++
					refused(bin, mode, "-"+f, "1")
				}
			}
		}
	}
	if foreign == 0 {
		t.Fatal("no mode was handed a foreign flag: the usage scan is broken")
	}
	t.Logf("handed %d foreign flags to the modes of %d binaries", foreign, len(binFlags))

	// The two commands that used to exit 0 with flags unread.
	out := filepath.Join(dir, "figs")
	refused("pombm-bench", "list", "-out", out)
	soakJSON := filepath.Join(dir, "soak.json")
	refused("pombm-bench", "fig", "table1", "-quick", "-eps", "0.2", "-soakjson", soakJSON)
	for _, path := range []string{out, soakJSON} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists after a refused run: %v", path, err)
		}
	}

	stdout, stderr, code := runCLI(t, filepath.Join(dir, "pombm-sim"), "nosuch")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `pombm-sim: unknown mode "nosuch"`) {
		t.Errorf("an unknown mode: exit %d, want 2 naming it\n%s%s", code, stdout, stderr)
	}
}
