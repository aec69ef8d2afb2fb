package hst

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the real cluster tree in Graphviz DOT format for
// inspection (used by pombm-bench tree). It errors when the tree was
// reconstructed from a published view and has no cluster structure.
func (t *Tree) WriteDOT(w io.Writer) error {
	root := t.Root()
	if root == nil {
		return fmt.Errorf("hst: no cluster structure to render (reconstructed tree)")
	}
	if _, err := fmt.Fprintln(w, "digraph hst {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")
	id := 0
	var emit func(n *Node) int
	emit = func(n *Node) int {
		my := id
		id++
		label := fmt.Sprintf("lvl %d\\n%s", n.Level, pointsLabel(n.Points))
		shape := ""
		if n.Level == 0 {
			shape = ", style=filled, fillcolor=lightblue"
		}
		fmt.Fprintf(w, "  n%d [label=\"%s\"%s];\n", my, label, shape)
		for j, ch := range n.Children {
			cid := emit(ch)
			fmt.Fprintf(w, "  n%d -> n%d [label=\"%d\"];\n", my, cid, j)
		}
		return my
	}
	emit(root)
	_, err := fmt.Fprintln(w, "}")
	return err
}

func pointsLabel(pts []int) string {
	const max = 8
	var b strings.Builder
	for i, p := range pts {
		if i == max {
			fmt.Fprintf(&b, "… (%d)", len(pts))
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%d", p)
	}
	return b.String()
}

// Stats summarises a tree for reporting.
type Stats struct {
	Depth       int
	Degree      int
	NumPoints   int
	RealNodes   int
	Beta        float64
	Scale       float64
	TotalLeaves float64 // leaves of the virtual complete tree, c^D
}

// Stats returns summary statistics of the tree.
func (t *Tree) Stats() Stats {
	s := Stats{
		Depth:       t.depth,
		Degree:      t.degree,
		NumPoints:   len(t.pts),
		Beta:        t.beta,
		Scale:       t.scale,
		TotalLeaves: t.TotalLeaves(),
	}
	if t.clusters != nil { // one pivot per cluster below the root
		s.RealNodes = len(t.clusters.pivots) + 1
	}
	return s
}
