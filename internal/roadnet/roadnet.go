// Package roadnet provides road-network metrics for spatial crowdsourcing:
// weighted undirected graphs with Dijkstra shortest paths, a Manhattan-style
// grid-network generator, and dense metric tables suitable for building
// HSTs over network distance instead of Euclidean distance.
//
// The paper formulates POMBM in a generic metric space X; its evaluation
// uses the plane, but real dispatching distances follow streets. Because
// Alg. 1 consumes only pairwise distances, the tree-based framework lifts
// to road networks unchanged — the abl-road experiment quantifies the
// difference.
package roadnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

// Graph is a weighted undirected graph with geometric node positions.
type Graph struct {
	nodes []geo.Point
	adj   [][]halfEdge
}

type halfEdge struct {
	to int
	w  float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node at position p and returns its id.
func (g *Graph) AddNode(p geo.Point) int {
	g.nodes = append(g.nodes, p)
	g.adj = append(g.adj, nil)
	return len(g.nodes) - 1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the position of node id.
func (g *Graph) Node(id int) geo.Point { return g.nodes[id] }

// Positions returns all node positions; callers must not modify the slice.
func (g *Graph) Positions() []geo.Point { return g.nodes }

// AddEdge adds an undirected edge of the given positive length.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		return fmt.Errorf("roadnet: edge (%d,%d) outside node range", u, v)
	}
	if u == v {
		return errors.New("roadnet: self loops not allowed")
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("roadnet: edge weight %v must be positive and finite", w)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	return nil
}

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// ShortestPaths runs Dijkstra from src and returns the distance to every
// node (+Inf for unreachable ones).
func (g *Graph) ShortestPaths(src int) []float64 {
	dist := make([]float64, len(g.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || src >= len(g.nodes) {
		return dist
	}
	dist[src] = 0
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		if top.d > dist[top.node] {
			continue // stale entry
		}
		for _, e := range g.adj[top.node] {
			if nd := top.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distEntry{node: e.to, d: nd})
			}
		}
	}
	return dist
}

// distHeap is a binary min-heap of (node, distance) entries.
type distEntry struct {
	node int
	d    float64
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Metric is a dense all-pairs shortest-path table over a node subset,
// ready to feed hst.BuildMetric.
type Metric struct {
	ids []int
	d   [][]float64
}

// MetricAmong computes network distances between the given nodes by one
// Dijkstra per node. It errors when any pair is disconnected (an HST needs
// a finite metric).
func (g *Graph) MetricAmong(nodes []int) (*Metric, error) {
	m := &Metric{ids: append([]int(nil), nodes...), d: make([][]float64, len(nodes))}
	for _, id := range nodes {
		if id < 0 || id >= len(g.nodes) {
			return nil, fmt.Errorf("roadnet: node %d outside range", id)
		}
	}
	for i, id := range nodes {
		all := g.ShortestPaths(id)
		row := make([]float64, len(nodes))
		for j, jd := range nodes {
			row[j] = all[jd]
			if math.IsInf(row[j], 1) {
				return nil, fmt.Errorf("roadnet: nodes %d and %d are disconnected", id, jd)
			}
		}
		m.d[i] = row
	}
	return m, nil
}

// Len returns the number of points in the metric.
func (m *Metric) Len() int { return len(m.ids) }

// Dist returns the network distance between metric indexes i and j.
func (m *Metric) Dist(i, j int) float64 { return m.d[i][j] }

// Manhattan generates a cols × rows grid road network over region:
// intersections at grid points, street segments between 4-neighbours with
// lengths equal to the Euclidean spacing scaled by a per-segment congestion
// factor drawn from [1, 1+congestion], and a fraction of segments removed
// (blocked streets) while keeping the network connected.
func Manhattan(region geo.Rect, cols, rows int, congestion, blockFrac float64, src *rng.Source) (*Graph, error) {
	if cols < 2 || rows < 2 {
		return nil, fmt.Errorf("roadnet: grid %dx%d too small", cols, rows)
	}
	if congestion < 0 || blockFrac < 0 || blockFrac >= 1 {
		return nil, fmt.Errorf("roadnet: bad congestion %v or blockFrac %v", congestion, blockFrac)
	}
	grid, err := geo.NewGrid(region, cols, rows)
	if err != nil {
		return nil, err
	}
	g := NewGraph()
	for i := 0; i < grid.Len(); i++ {
		g.AddNode(grid.Point(i))
	}
	type seg struct{ u, v int }
	var segs []seg
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				segs = append(segs, seg{id, id + 1})
			}
			if r+1 < rows {
				segs = append(segs, seg{id, id + cols})
			}
		}
	}
	// Block a sample of segments, but never disconnect: a segment is only
	// removable if both endpoints keep degree ≥ 2 afterwards (cheap local
	// criterion that preserves connectivity on grid graphs' outer face
	// except in adversarial cascades, which we re-check globally below).
	blocked := make(map[seg]bool)
	target := int(blockFrac * float64(len(segs)))
	degree := make([]int, g.NumNodes())
	for _, s := range segs {
		degree[s.u]++
		degree[s.v]++
	}
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	rng.PermInPlace(src.Derive("blocks"), order)
	for _, i := range order {
		if len(blocked) >= target {
			break
		}
		s := segs[i]
		if degree[s.u] <= 2 || degree[s.v] <= 2 {
			continue
		}
		blocked[s] = true
		degree[s.u]--
		degree[s.v]--
	}
	wSrc := src.Derive("weights")
	for _, s := range segs {
		if blocked[s] {
			continue
		}
		base := g.Node(s.u).Dist(g.Node(s.v))
		factor := 1 + wSrc.Float64()*congestion
		if err := g.AddEdge(s.u, s.v, base*factor); err != nil {
			return nil, err
		}
	}
	// Global connectivity check; degree heuristics cannot fail on grids
	// with blockFrac < 1, but verify rather than assume.
	if dist := g.ShortestPaths(0); hasInf(dist) {
		return nil, errors.New("roadnet: generated network is disconnected")
	}
	return g, nil
}

func hasInf(xs []float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 1) {
			return true
		}
	}
	return false
}
