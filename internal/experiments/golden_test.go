package experiments

import (
	"encoding/csv"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

// valueFigures are the figures whose cells are values, not wall-clock: the
// distance and size families, Table I, and the value ablations. The
// running-time and memory families (fig6e–l, fig7e–l, fig8e–h), abl-walk
// and abl-index measure the machine and have no golden.
var valueFigures = []string{
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d",
	"fig8a", "fig8b", "fig8c", "fig8d",
	"table1", "abl-cr", "abl-chain", "abl-em", "abl-grid", "abl-road",
}

// goldenTol is the relative tolerance on a numeric cell: room for a
// summation-order change in the last digits, far below any move an
// obfuscation, tree or tie-breaking change makes.
const goldenTol = 1e-9

// TestFiguresGolden pins the paper's figures at quickRunner's config: each
// value figure's CSV must match testdata/golden/<id>.csv — text cells
// exactly, numeric cells within goldenTol relative — except a series whose
// label names a time. `go test ./internal/experiments -run Golden -update`
// rewrites the files; the diff a reviewer reads is the figure itself.
func TestFiguresGolden(t *testing.T) {
	r := quickRunner(t)
	for _, id := range valueFigures {
		fig, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := fig.CSV()
		path := filepath.Join("testdata", "golden", id+".csv")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", id, err)
		}
		compareFigureCSV(t, id, got, string(want))
	}
}

func compareFigureCSV(t *testing.T, id, got, want string) {
	t.Helper()
	g, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatalf("%s: this run's CSV: %v", id, err)
	}
	w, err := csv.NewReader(strings.NewReader(want)).ReadAll()
	if err != nil {
		t.Fatalf("%s: golden CSV: %v", id, err)
	}
	if len(g) != len(w) || len(g[0]) != len(w[0]) {
		t.Fatalf("%s: %d×%d cells, golden %d×%d", id, len(g), len(g[0]), len(w), len(w[0]))
	}
	header := w[0]
	for row := range w {
		for col, wc := range w[row] {
			if gc := g[row][col]; !cellsMatch(gc, wc) && !namesATime(header[col]) {
				t.Errorf("%s: row %d, %q: got %q, golden %q", id, row, header[col], gc, wc)
			}
		}
	}
}

// cellsMatch compares two cells: numbers within goldenTol relative, any
// other text exactly.
func cellsMatch(got, want string) bool {
	if got == want {
		return true
	}
	a, errA := strconv.ParseFloat(got, 64)
	b, errB := strconv.ParseFloat(want, 64)
	if errA != nil || errB != nil {
		return false
	}
	return math.Abs(a-b) <= goldenTol*math.Max(math.Abs(a), math.Abs(b))
}

// namesATime reports whether a column's series measures wall-clock time
// (today only abl-grid's "env build time (secs)").
func namesATime(label string) bool { return strings.Contains(label, "time") }
