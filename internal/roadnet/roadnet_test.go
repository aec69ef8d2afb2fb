package roadnet

import (
	"math"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geo.Pt(0, 0))
	b := g.AddNode(geo.Pt(1, 0))
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(a, 9, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(a, b, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(a, b, math.Inf(1)); err == nil {
		t.Error("infinite weight accepted")
	}
}

func TestDijkstraKnownGraph(t *testing.T) {
	//     1
	//  0 --- 1
	//  |      \ 2
	//  4       2
	//  |      /
	//  3 --- 1
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode(geo.Pt(float64(i), 0))
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 3, 4)
	g.AddEdge(3, 2, 1)
	dist := g.ShortestPaths(0)
	want := []float64{0, 1, 3, 4}
	for i, w := range want {
		if math.Abs(dist[i]-w) > 1e-12 {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		s := src.DeriveN("t", trial)
		n := 2 + s.Intn(30)
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(geo.Pt(s.Uniform(0, 10), s.Uniform(0, 10)))
		}
		type edge struct {
			u, v int
			w    float64
		}
		var edges []edge
		for i := 0; i < n*3; i++ {
			u, v := s.Intn(n), s.Intn(n)
			if u == v {
				continue
			}
			w := s.Uniform(0.1, 10)
			if err := g.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, edge{u, v, w})
		}
		got := g.ShortestPaths(0)
		// Bellman-Ford reference.
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = math.Inf(1)
		}
		ref[0] = 0
		for iter := 0; iter < n; iter++ {
			for _, e := range edges {
				if ref[e.u]+e.w < ref[e.v] {
					ref[e.v] = ref[e.u] + e.w
				}
				if ref[e.v]+e.w < ref[e.u] {
					ref[e.u] = ref[e.v] + e.w
				}
			}
		}
		for i := range ref {
			if math.IsInf(ref[i], 1) != math.IsInf(got[i], 1) {
				t.Fatalf("trial %d node %d: reachability mismatch", trial, i)
			}
			if !math.IsInf(ref[i], 1) && math.Abs(ref[i]-got[i]) > 1e-9 {
				t.Fatalf("trial %d node %d: dijkstra %v, bellman-ford %v", trial, i, got[i], ref[i])
			}
		}
	}
}

func TestManhattanGeneratorProperties(t *testing.T) {
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200))
	src := rng.New(5)
	g, err := Manhattan(region, 12, 12, 0.5, 0.15, src)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 144 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	full := 2 * 12 * 11
	if g.NumEdges() >= full || g.NumEdges() < full/2 {
		t.Errorf("edges = %d, want blocked fraction of %d", g.NumEdges(), full)
	}
	// Connected: every node reachable from node 0.
	dist := g.ShortestPaths(0)
	for i, d := range dist {
		if math.IsInf(d, 1) {
			t.Fatalf("node %d unreachable", i)
		}
	}
	// Network distance dominates Euclidean distance (congestion ≥ 1 and
	// paths are at least as long as straight lines).
	for i := 0; i < g.NumNodes(); i += 13 {
		if dist[i]+1e-9 < g.Node(0).Dist(g.Node(i)) {
			t.Fatalf("network distance to %d shorter than Euclidean", i)
		}
	}
}

func TestManhattanValidation(t *testing.T) {
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	src := rng.New(1)
	if _, err := Manhattan(region, 1, 5, 0, 0, src); err == nil {
		t.Error("1-column grid accepted")
	}
	if _, err := Manhattan(region, 4, 4, -1, 0, src); err == nil {
		t.Error("negative congestion accepted")
	}
	if _, err := Manhattan(region, 4, 4, 0, 1, src); err == nil {
		t.Error("blockFrac=1 accepted")
	}
}

func TestMetricAmongIsAMetric(t *testing.T) {
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	src := rng.New(9)
	g, err := Manhattan(region, 8, 8, 0.3, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	m, err := g.MetricAmong(nodes)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Len()
	for i := 0; i < n; i += 5 {
		if m.Dist(i, i) != 0 {
			t.Fatalf("d(%d,%d) = %v", i, i, m.Dist(i, i))
		}
		for j := 0; j < n; j += 7 {
			if math.Abs(m.Dist(i, j)-m.Dist(j, i)) > 1e-9 {
				t.Fatalf("asymmetric: d(%d,%d) ≠ d(%d,%d)", i, j, j, i)
			}
			for k := 0; k < n; k += 11 {
				if m.Dist(i, k) > m.Dist(i, j)+m.Dist(j, k)+1e-9 {
					t.Fatalf("triangle violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestMetricAmongDisconnected(t *testing.T) {
	g := NewGraph()
	g.AddNode(geo.Pt(0, 0))
	g.AddNode(geo.Pt(1, 0))
	if _, err := g.MetricAmong([]int{0, 1}); err == nil {
		t.Error("disconnected metric accepted")
	}
	if _, err := g.MetricAmong([]int{0, 5}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// TestHSTOverRoadMetric builds an HST on network distances and checks the
// FRT non-contraction guarantee holds in the road metric.
func TestHSTOverRoadMetric(t *testing.T) {
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200))
	src := rng.New(21)
	g, err := Manhattan(region, 10, 10, 0.4, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	m, err := g.MetricAmong(nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hst.BuildMetric(m.Len(), m.Dist, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Len(); i += 3 {
		for j := i + 1; j < m.Len(); j += 7 {
			road := m.Dist(i, j) * tr.Scale()
			if dt := tr.Dist(tr.CodeOf(i), tr.CodeOf(j)); dt < road-1e-9 {
				t.Fatalf("tree contracted road metric at (%d,%d): %v < %v", i, j, dt, road)
			}
		}
	}
}

// TestLeafIndexOverRoadTreeIsSmall pins the worker index's footprint on a
// tree built from a road metric — deeper and narrower than the planar one
// the repository benchmark publishes — at a sparse population: 1,000
// workers, half on real intersections and half on fake leaves anywhere in
// the padded tree, which is where an index pays for the prefixes above its
// buckets. The ceiling sits ~10 % over what ships (44.1 B/worker; the
// node-per-prefix trie read 197.4).
func TestLeafIndexOverRoadTreeIsSmall(t *testing.T) {
	src := rng.New(33)
	g, err := Manhattan(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)), 16, 16, 0.4, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	m, err := g.MetricAmong(nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hst.BuildMetric(m.Len(), m.Dist, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 1000
	idx := hst.NewLeafIndexDegree(tr.Depth(), tr.Degree())
	for id := 0; id < workers; id++ {
		code := tr.CodeOf(src.Intn(m.Len()))
		if id%2 == 1 {
			fake := make([]byte, tr.Depth())
			for j := range fake {
				fake[j] = byte(src.Intn(tr.Degree()))
			}
			code = hst.Code(fake)
		}
		if err := idx.Insert(code, id); err != nil {
			t.Fatal(err)
		}
	}
	got := float64(idx.ArenaBytes()) / workers
	t.Logf("depth %d, degree %d: %.1f index bytes per worker", tr.Depth(), tr.Degree(), got)
	if got > 49 {
		t.Errorf("index holds %.1f B/worker at %d workers, ceiling 49", got, workers)
	}
}
