package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/roadnet"
	"github.com/pombm/pombm/internal/workload"
)

func quickRunner(t testing.TB) *Runner {
	t.Helper()
	r, err := NewRunner(Config{Seed: 2020, Reps: 1, Scale: 0.02, GridCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Reps: 0, Scale: 1, GridCols: 8},
		{Reps: 1, Scale: 0, GridCols: 8},
		{Reps: 1, Scale: 1, GridCols: 1},
	}
	for _, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every panel of Fig. 6 (a–l), Fig. 7 (a–l), Fig. 8 (a–h), Table I,
	// and the five ablations must be registered.
	want := []string{"table1",
		"abl-walk", "abl-index", "abl-grid", "abl-cr", "abl-em", "abl-chain", "abl-road"}
	for _, ch := range "abcdefghijkl" {
		want = append(want, "fig6"+string(ch), "fig7"+string(ch))
	}
	for _, ch := range "abcdefgh" {
		want = append(want, "fig8"+string(ch))
	}
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %q not registered", id)
		}
		if _, ok := Title(id); !ok {
			t.Errorf("experiment %q has no title", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := quickRunner(t)
	if _, err := r.Run("fig99z"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestDistanceFigureSmoke(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Run("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 5 {
		t.Errorf("x points = %d, want 5", len(fig.X))
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Values) != len(fig.X) {
			t.Errorf("%s: %d values for %d x", s.Label, len(s.Values), len(fig.X))
		}
		for i, v := range s.Values {
			if math.IsNaN(v) || v < 0 {
				t.Errorf("%s[%d] = %v", s.Label, i, v)
			}
		}
	}
}

func TestRealDataFigureSmoke(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Run("fig7c")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("%s[%d] = %v, want positive distance", s.Label, i, v)
			}
		}
	}
}

func TestSizeFigureSmoke(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Run("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2 (Prob, TBF)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Label != "Prob" && s.Label != "TBF" {
			t.Errorf("unexpected series %q", s.Label)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 5 {
		t.Fatalf("levels = %d, want 5 (0..4)", len(fig.X))
	}
	wantProb := []float64{0.394, 0.264, 0.119, 0.024, 0.001}
	var prob Series
	for _, s := range fig.Series {
		if s.Label == "per-leaf probability" {
			prob = s
		}
	}
	if prob.Label == "" {
		t.Fatal("per-leaf probability series missing")
	}
	for i, want := range wantProb {
		if math.Abs(prob.Values[i]-want) > 5e-4 {
			t.Errorf("level %d: prob %.4f, want %.3f", i, prob.Values[i], want)
		}
	}
}

func TestMeasurementCacheShared(t *testing.T) {
	// fig6a and fig6e share sweep points; the second must hit the cache.
	r := quickRunner(t)
	if _, err := r.Run("fig6a"); err != nil {
		t.Fatal(err)
	}
	n := len(r.distCache)
	if n == 0 {
		t.Fatal("no cache entries after fig6a")
	}
	if _, err := r.Run("fig6e"); err != nil {
		t.Fatal(err)
	}
	if len(r.distCache) != n {
		t.Errorf("fig6e added %d cache entries; sweeps not shared", len(r.distCache)-n)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a := quickRunner(t)
	b := quickRunner(t)
	fa, err := a.Run("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Run("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa.Series {
		if fa.Series[i].Label != fb.Series[i].Label {
			t.Fatal("series order unstable")
		}
		for j := range fa.Series[i].Values {
			// Distances are deterministic; times are not compared.
			if fa.YLabel == "total distance" && fa.Series[i].Values[j] != fb.Series[i].Values[j] {
				t.Errorf("series %s[%d] differs across identical runners", fa.Series[i].Label, j)
			}
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	text := fig.Render()
	if !strings.Contains(text, "table1") || !strings.Contains(text, "wt_i") {
		t.Errorf("Render output missing headers:\n%s", text)
	}
	csv := fig.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(fig.X) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(fig.X))
	}
	if !strings.HasPrefix(lines[0], "LCA level i,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	md := fig.Markdown()
	if !strings.HasPrefix(md, "| LCA level i") {
		t.Errorf("Markdown header = %q", strings.Split(md, "\n")[0])
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("comma: %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Errorf("quotes: %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("plain: %q", got)
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slower")
	}
	r := quickRunner(t)
	for _, id := range []string{"abl-grid", "abl-cr", "abl-em"} {
		fig, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) == 0 || len(fig.X) == 0 {
			t.Errorf("%s: empty figure", id)
		}
	}
}

// TestEveryExperimentRuns executes the complete registry at smoke scale:
// every panel and ablation must produce a well-formed figure whose series
// lengths match the x axis.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	r := quickRunner(t)
	for _, id := range IDs() {
		fig, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("%s: figure labelled %q", id, fig.ID)
		}
		if len(fig.X) == 0 || len(fig.Series) == 0 {
			t.Fatalf("%s: empty figure", id)
		}
		for _, s := range fig.Series {
			if len(s.Values) != len(fig.X) {
				t.Errorf("%s/%s: %d values for %d x", id, s.Label, len(s.Values), len(fig.X))
			}
			if s.Spread != nil && len(s.Spread) != len(fig.X) {
				t.Errorf("%s/%s: %d spreads for %d x", id, s.Label, len(s.Spread), len(fig.X))
			}
		}
		if _, ok := Title(id); !ok {
			t.Errorf("%s: missing title", id)
		}
	}
}

// TestRoadSnapIsNearestIntersection pins the property abl-road's snapping
// rests on: roadnet.Manhattan puts node i at the grid's point i, so for any
// location — a tenth of them outside the region — the cell Grid.Snap names
// is the brute-force nearest intersection.
func TestRoadSnapIsNearestIntersection(t *testing.T) {
	const cols, rows = 24, 17
	region := workload.SyntheticRegion
	src := rng.New(5)
	network, err := roadnet.Manhattan(region, cols, rows, 0.6, 0.12, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.MustGrid(region, cols, rows)
	nodes := network.Positions()
	if len(nodes) != grid.Len() {
		t.Fatalf("%d intersections over a %d-point grid", len(nodes), grid.Len())
	}
	for i := 0; i < 10000; i++ {
		p := geo.Pt(region.MinX+src.Float64()*region.Width(), region.MinY+src.Float64()*region.Height())
		if i%10 == 0 { // push it past one of the four edges or four corners
			k := src.Intn(8)
			if k >= 4 {
				k++ // 4 is the region itself
			}
			p.X += region.Width() * float64(k%3-1)
			p.Y += region.Height() * float64(k/3-1)
		}
		nearest, best := -1, math.Inf(1)
		for j, q := range nodes {
			if d := p.Dist(q); d < best {
				nearest, best = j, d
			}
		}
		if got := grid.Snap(p); got != nearest {
			t.Fatalf("Snap(%v) = node %d at %v, the nearest is node %d at %v", p, got, p.Dist(nodes[got]), nearest, best)
		}
	}
}
