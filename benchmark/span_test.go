package main

import "testing"

func sp(start, end int64) Span { return Span{Start: start, End: end} }

// The self-time rule: a span minus the union of its children, clipped.
func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   Span
		children []Span
		want     int64
	}{
		{"no children", sp(100, 200), nil, 100},
		{"nested children", sp(0, 100), []Span{sp(10, 30), sp(50, 60)}, 70},
		// Three parallel polls occupy their union, not their sum.
		{"overlapping parallel children", sp(0, 100), []Span{sp(10, 50), sp(20, 60), sp(30, 40)}, 50},
		{"child outliving its parent is clipped", sp(0, 100), []Span{sp(80, 150)}, 80},
		{"child starting before its parent is clipped", sp(50, 100), []Span{sp(0, 60)}, 40},
		{"child outside the parent", sp(0, 100), []Span{sp(200, 300)}, 100},
		{"children covering everything", sp(0, 100), []Span{sp(0, 50), sp(50, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOverlappingWindow(t *testing.T) {
	spans := []Span{sp(0, 5), sp(10, 40), sp(20, 25), sp(50, 60), sp(100, 110)}
	// A superset is fine (selfTime clips), a miss is not: everything that
	// starts before the window's end and could still run at its start.
	got := overlapping(spans, 22, 55, 30)
	if len(got) != 4 || got[0].Start != 0 || got[3].Start != 50 {
		t.Errorf("overlapping returned %v", got)
	}
	if got := overlapping(spans, 22, 55, 5); len(got) != 2 || got[0].Start != 20 {
		t.Errorf("with a 5 ns longest span, overlapping returned %v", got)
	}
}

func TestRecorderClaimsPutsAndDrops(t *testing.T) {
	rec := NewRecorder(2)
	a := rec.Begin(kCoreAssign, 0, 7)
	rec.End(a, 1)
	b := rec.Claim()
	rec.Put(b, Span{Kind: kClientSubmit, Parent: a, Req: 7, N: 1, Start: 1, End: 2})
	if c := rec.Begin(kCoreInsert, 0, 0); c != 0 {
		t.Errorf("third span in a two-span arena got id %d, want 0 (dropped)", c)
	}
	rec.End(0, 1) // ending a dropped span is a no-op
	spans := rec.Spans()
	if len(spans) != 2 || rec.Dropped() != 1 {
		t.Fatalf("%d spans, %d dropped; want 2 and 1", len(spans), rec.Dropped())
	}
	for _, s := range spans {
		if s.ID == b && (s.Parent != a || s.Kind != kClientSubmit) {
			t.Errorf("put span came back as %+v", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { rec.End(rec.Begin(kCoreAssign, 0, 0), 1) }); n != 0 {
		t.Errorf("recording allocates %v times per span, want 0", n)
	}
}

func TestEverySpanKindIsNamed(t *testing.T) {
	for k, name := range spanKindNames {
		if name == "" {
			t.Errorf("span kind %d has no name", k)
		}
	}
}
