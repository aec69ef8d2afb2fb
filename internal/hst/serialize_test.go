package hst

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

func TestPublishRoundTrip(t *testing.T) {
	src := rng.New(5)
	pts := randomPoints(src.Derive("pts"), 50, 100)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Depth() != tr.Depth() || back.Degree() != tr.Degree() {
		t.Errorf("D,c = %d,%d want %d,%d", back.Depth(), back.Degree(), tr.Depth(), tr.Degree())
	}
	if back.Scale() != tr.Scale() || back.Beta() != tr.Beta() {
		t.Error("scale/beta lost in round trip")
	}
	for i := range pts {
		if back.CodeOf(i) != tr.CodeOf(i) {
			t.Fatalf("code %d changed in round trip", i)
		}
		if back.Point(i) != tr.Point(i) {
			t.Fatalf("point %d changed in round trip", i)
		}
	}
	// Distances agree for all pairs.
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if back.Dist(back.CodeOf(i), back.CodeOf(j)) != tr.Dist(tr.CodeOf(i), tr.CodeOf(j)) {
				t.Fatalf("distance (%d,%d) changed", i, j)
			}
		}
	}
	if back.Root() != nil {
		t.Error("reconstructed tree should not expose cluster structure")
	}
}

func TestPublishedValidation(t *testing.T) {
	good := &Published{
		Depth: 2, Degree: 2, Beta: 0.75, Scale: 1,
		Points: []geo.Point{geo.Pt(0, 0), geo.Pt(5, 5)},
		Codes:  [][]byte{{0, 0}, {1, 0}},
	}
	if _, err := good.Tree(); err != nil {
		t.Fatalf("valid published rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p *Published)
	}{
		{"bad depth", func(p *Published) { p.Depth = 0 }},
		{"bad degree", func(p *Published) { p.Degree = 0 }},
		{"degree overflow", func(p *Published) { p.Degree = 300 }},
		{"no points", func(p *Published) { p.Points = nil; p.Codes = nil }},
		{"count mismatch", func(p *Published) { p.Codes = p.Codes[:1] }},
		{"short code", func(p *Published) { p.Codes[0] = []byte{0} }},
		{"digit overflow", func(p *Published) { p.Codes[0] = []byte{9, 0} }},
		{"duplicate codes", func(p *Published) { p.Codes[1] = []byte{0, 0} }},
		{"beta missing", func(p *Published) { p.Beta = 0 }},
		{"beta below half", func(p *Published) { p.Beta = 0.49 }},
		{"beta above one", func(p *Published) { p.Beta = 1.01 }},
		{"beta NaN", func(p *Published) { p.Beta = math.NaN() }},
		{"scale zero", func(p *Published) { p.Scale = 0 }},
		{"scale negative", func(p *Published) { p.Scale = -2 }},
		{"scale infinite", func(p *Published) { p.Scale = math.Inf(1) }},
		{"scale NaN", func(p *Published) { p.Scale = math.NaN() }},
		{"point NaN", func(p *Published) { p.Points[1].X = math.NaN() }},
		{"point infinite", func(p *Published) { p.Points[0].Y = math.Inf(-1) }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			p := &Published{
				Depth: good.Depth, Degree: good.Degree, Beta: good.Beta, Scale: good.Scale,
				Points: append([]geo.Point(nil), good.Points...),
				Codes:  [][]byte{append([]byte(nil), good.Codes[0]...), append([]byte(nil), good.Codes[1]...)},
			}
			tt.mutate(p)
			if _, err := p.Tree(); err == nil {
				t.Error("invalid published accepted")
			}
		})
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"depth": -1}`), &tr); err == nil {
		t.Error("garbage accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &tr); err == nil {
		t.Error("non-JSON accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 1), geo.Pt(2, 3), geo.Pt(5, 3), geo.Pt(4, 4)}
	tr, err := BuildWithParams(pts, 0.5, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb jsonBuffer
	if err := tr.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if len(out) == 0 || out[:7] != "digraph" {
		t.Errorf("DOT output malformed: %q", out)
	}
	// Reconstructed trees cannot render.
	back, err := tr.Publish().Tree()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteDOT(&sb); err == nil {
		t.Error("reconstructed tree rendered DOT")
	}
	st := tr.Stats()
	if st.NumPoints != 4 || st.Depth != 4 || st.Degree != 2 || st.RealNodes == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

// jsonBuffer is a minimal strings.Builder clone implementing io.Writer,
// avoiding an extra import block churn in this file.
type jsonBuffer struct{ b []byte }

func (s *jsonBuffer) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *jsonBuffer) String() string              { return string(s.b) }
