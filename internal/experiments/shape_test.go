package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureShapesGolden pins the shape of every registered experiment at
// quickRunner's config, the time, memory and walk panels that
// TestFiguresGolden cannot pin by value included: the registered title, the
// figure's id, title and axis labels, its x values, and each series' label
// and length with or without a spread. testdata/shapes.golden holds them;
// `go test ./internal/experiments -run Shapes -update` rewrites it.
func TestFigureShapesGolden(t *testing.T) {
	r := quickRunner(t)
	var b strings.Builder
	for _, id := range IDs() {
		fig, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		title, _ := Title(id)
		fmt.Fprintf(&b, "%s\n  registered %q\n  figure %q %q\n  axes %q %q\n  x %q\n",
			id, title, fig.ID, fig.Title, fig.XLabel, fig.YLabel, fig.X)
		for _, s := range fig.Series {
			fmt.Fprintf(&b, "  series %q values %d", s.Label, len(s.Values))
			if s.Spread != nil {
				fmt.Fprintf(&b, " spread %d", len(s.Spread))
			}
			b.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "shapes.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d: got %q, golden %q", i+1, g, w)
		}
	}
}
