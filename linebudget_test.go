package pombm_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineBudget is the number of lines of non-test Go outside benchmark/, and
// it only ratchets down (ROADMAP aim 2): a change that deletes lowers it in
// the same commit, and one that must raise it says why in CHANGES.md.
const lineBudget = 21671

func TestLineBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		lines += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case lines > lineBudget:
		t.Errorf("%d lines of non-test Go, the budget is %d: delete as much as the change adds, or raise lineBudget and say why in CHANGES.md",
			lines, lineBudget)
	case lines < lineBudget:
		t.Errorf("%d lines of non-test Go, the budget is still %d: lower lineBudget to keep what the change deleted", lines, lineBudget)
	}
}
