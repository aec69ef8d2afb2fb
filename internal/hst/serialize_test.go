package hst

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/workload"
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

// TestPublishedTreeAllocs pins the decode every agent, node Init and
// rotation prepare pays: a 64×64 publication's 4,096 codes land in one
// slab through the builder's finish, not in one string each; what is left
// is mostly the code index's map tables.
func TestPublishedTreeAllocs(t *testing.T) {
	tree, err := Build(gridPoints(workload.SyntheticRegion, 64, 64), rng.New(7).Derive("server-hst"))
	if err != nil {
		t.Fatal(err)
	}
	pub := tree.Publish()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pub.Tree(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Published.Tree: %.0f allocs", allocs)
	if allocs > 32 {
		t.Errorf("Published.Tree allocates %.0f times, want ≤ 32", allocs)
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

// unmarshalBefore is UnmarshalJSON as it read a tree before the codec:
// encoding/json into the published form, then its reconstruction.
func unmarshalBefore(doc []byte) (*Tree, error) {
	var p Published
	if err := json.Unmarshal(doc, &p); err != nil {
		return nil, err
	}
	return p.Tree()
}

// sameTree reports whether two trees agree field for field and publish the
// same bytes (which tells -0 from 0).
func sameTree(a, b *Tree) bool {
	return reflect.DeepEqual(a, b) && bytes.Equal(a.AppendJSON(nil), b.AppendJSON(nil))
}

// checkTreeScan holds the scanner to encoding/json on doc: whatever it
// accepts, encoding/json reads to the same tree, and UnmarshalJSON — the
// scanner, else the fallback — ends as it did before the codec. It reports
// whether the scanner accepted doc.
func checkTreeScan(t *testing.T, doc []byte) (accepted bool) {
	t.Helper()
	ref, refErr := unmarshalBefore(doc)
	s := wire.Scan(doc)
	if tr, err := ScanJSON(&s); err == nil && s.End() == nil {
		if refErr != nil || !sameTree(tr, ref) {
			t.Fatalf("scanned %q, encoding/json reads it as %v (%v)", doc, ref, refErr)
		}
		accepted = true
	}
	var got Tree
	err := got.UnmarshalJSON(doc)
	switch {
	case (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()):
		t.Fatalf("%q: UnmarshalJSON says %v, before the codec %v", doc, err, refErr)
	case err == nil && !sameTree(&got, ref):
		t.Fatalf("%q: UnmarshalJSON and the read before the codec differ", doc)
	case err != nil && !reflect.DeepEqual(got, Tree{}):
		t.Fatalf("%q: a refused document changed the tree", doc)
	}
	return accepted
}

// treeDoc is a canonical document of a two-point tree.
const treeDoc = `{"depth":2,"degree":2,"beta":0.75,"scale":1,"points":[{"X":0,"Y":0},{"X":5,"Y":5}],"codes":["AAA=","AQA="]}`

// FuzzTreeCodec is the published tree's codec against encoding/json, both
// ways: the scanner reads only what encoding/json reads to the same tree,
// and every other document ends as it did; and for arbitrary trees the
// encoder writes json.Marshal(t.Publish())'s bytes.
func FuzzTreeCodec(f *testing.F) {
	src := rng.New(11)
	built, err := Build(randomPoints(src.Derive("pts"), 12, 50), src.Derive("tree"))
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{
		string(built.AppendJSON(nil)),
		treeDoc,
		" {\n\t\"codes\" : [ \"AAA=\" , \"AQ\\u0041=\" ] , \"points\":[ {\"Y\":0 ,\"X\":0} ,{\"X\":5,\"Y\":5}],\r\"scale\":1, \"beta\":0.75,\"degree\":2,\"depth\":2 } \n",
		// Numbers encoding/json reads, and some it refuses.
		strings.Replace(treeDoc, `"scale":1`, `"scale":1.0`, 1),
		strings.Replace(treeDoc, `"X":5`, `"X":1e2`, 1),
		strings.Replace(treeDoc, `"X":0`, `"X":-0`, 1),
		strings.Replace(treeDoc, `"Y":5`, `"Y":1E+2`, 1),
		strings.Replace(treeDoc, `"scale":1`, `"scale":1e400`, 1),
		strings.Replace(treeDoc, `"depth":2`, `"depth":2.0`, 1),
		strings.Replace(treeDoc, `"beta":0.75`, `"beta":.5`, 1),
		strings.Replace(treeDoc, `"X":5`, `"X":05`, 1),
		strings.Replace(treeDoc, `"X":5`, `"X":+5`, 1),
		strings.Replace(treeDoc, `"X":5`, `"X":5.`, 1),
		// Duplicate, case-folded and unknown keys, and nulls.
		strings.Replace(treeDoc, `"depth":2`, `"depth":2,"depth":2`, 1),
		strings.Replace(treeDoc, `"depth":2`, `"Depth":2`, 1),
		strings.Replace(treeDoc, `"X":5`, `"x":5`, 1),
		strings.Replace(treeDoc, `"depth":2`, `"depth":2,"root":{}`, 1),
		strings.Replace(treeDoc, `"scale":1`, `"scale":null`, 1),
		strings.Replace(treeDoc, `"AQA="`, `null`, 1),
		strings.Replace(treeDoc, `{"X":5,"Y":5}`, `null`, 1),
		`{"depth":2,"points":null}`,
		// Trailing data, and documents that are not trees.
		treeDoc + " x",
		treeDoc + "{}",
		strings.Replace(treeDoc, `"AQA="`, `"AAA="`, 1),
		strings.Replace(treeDoc, `"AQA="`, `"AQ="`, 1),
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(doc), 2, 2, math.Float64bits(0.75), math.Float64bits(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	}
	f.Add([]byte(nil), 0, 0, math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1)), []byte(nil))
	f.Add([]byte(nil), 3, 300, math.Float64bits(1e-7), math.Float64bits(1e21), bytes.Repeat([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, 4))

	f.Fuzz(func(t *testing.T, doc []byte, depth, degree int, beta, scale uint64, raw []byte) {
		checkTreeScan(t, doc)

		tr := &Tree{depth: depth, degree: degree, beta: math.Float64frombits(beta), scale: math.Float64frombits(scale)}
		for i := 0; i+16 <= len(raw); i += 16 {
			tr.pts = append(tr.pts, geo.Pt(math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])), math.Float64frombits(binary.LittleEndian.Uint64(raw[i+8:]))))
			tr.codes = append(tr.codes, Code(raw[i:i+int(raw[i]%5)]))
		}
		got := tr.AppendJSON(nil)
		want, err := json.Marshal(tr.Publish())
		if err != nil {
			if _, err := json.Marshal(tr); err == nil {
				t.Fatalf("json.Marshal refuses %+v's published form, not the tree", tr.Publish())
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded\n got %q\nwant %q", got, want)
		}
		if back, err := tr.Publish().Tree(); err == nil {
			s := wire.Scan(got)
			if scanned, err := ScanJSON(&s); err != nil || !sameTree(scanned, back) {
				t.Fatalf("the scanner reads the encoder's own %q as %v (%v)", got, scanned, err)
			}
		}
	})
}

// TestTreeGrammar pins which documents the scanner takes — whitespace,
// member order and escapes aside, what the encoder writes — and that every
// other one reaches encoding/json.
func TestTreeGrammar(t *testing.T) {
	for doc, accepted := range map[string]bool{
		treeDoc:        true,
		treeDoc + "\n": true,
		strings.Replace(treeDoc, `"AQA="`, `"AQ\u0041="`, 1):            true,
		strings.Replace(treeDoc, `"scale":1`, `"scale":1.0e0`, 1):       true,
		strings.Replace(treeDoc, `"depth":2`, `"Depth":2`, 1):           false,
		strings.Replace(treeDoc, `"depth":2`, `"depth":2,"depth":2`, 1): false,
		strings.Replace(treeDoc, `"scale":1`, `"scale":null`, 1):        false,
		strings.Replace(treeDoc, `"scale":1`, `"scale":1e400`, 1):       false,
		strings.Replace(treeDoc, `"X":5`, `"X":05`, 1):                  false,
		treeDoc + " x": false,
	} {
		if got := checkTreeScan(t, []byte(doc)); got != accepted {
			t.Errorf("%s: scanner accepts it: %v, want %v", doc, got, accepted)
		}
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
