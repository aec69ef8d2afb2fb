package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// treeMode builds a Hierarchically Well-Separated Tree over a predefined
// point grid and reports its structure: depth, branching factor, node
// counts, a distortion sample, and optionally Graphviz DOT output.
func treeMode(fs *flag.FlagSet) func([]string) error {
	var (
		grid    = fs.Int("grid", 16, "grid columns/rows (N = grid²)")
		side    = fs.Float64("side", 200, "side length of the square region")
		seed    = fs.Uint64("seed", 2020, "random seed for permutation and β")
		dotPath = fs.String("dot", "", "write the cluster tree in DOT format to this file")
		example = fs.Bool("example", false, "build the paper's Example 1 tree instead of a grid")
		sample  = fs.Int("sample", 2000, "random pairs for the distortion report")
	)
	return func([]string) error {
		var tree *hst.Tree
		var err error
		if *example {
			pts := []geo.Point{geo.Pt(1, 1), geo.Pt(2, 3), geo.Pt(5, 3), geo.Pt(4, 4)}
			tree, err = hst.BuildWithParams(pts, 0.5, []int{0, 1, 2, 3})
		} else {
			g, gerr := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(*side, *side)), *grid, *grid)
			if gerr != nil {
				return gerr
			}
			tree, err = hst.Build(g.Points(), rng.New(*seed))
		}
		if err != nil {
			return err
		}

		st := tree.Stats()
		fmt.Printf("points (N):          %d\n", st.NumPoints)
		fmt.Printf("depth (D):           %d\n", st.Depth)
		fmt.Printf("degree (c):          %d\n", st.Degree)
		fmt.Printf("real cluster nodes:  %d\n", st.RealNodes)
		fmt.Printf("complete-tree leaves (c^D): %.4g\n", st.TotalLeaves)
		fmt.Printf("beta:                %.4f\n", st.Beta)
		fmt.Printf("metric scale:        %.4g\n", st.Scale)

		// Distortion sample: dT/d over random point pairs.
		src := rng.New(*seed).Derive("distortion")
		n := tree.NumPoints()
		if n >= 2 && *sample > 0 {
			lo, hi, sum, count := 1e300, 0.0, 0.0, 0
			for i := 0; i < *sample; i++ {
				a, b := src.Intn(n), src.Intn(n)
				if a == b {
					continue
				}
				r := tree.Dist(tree.CodeOf(a), tree.CodeOf(b)) / (tree.Point(a).Dist(tree.Point(b)) * tree.Scale())
				lo, hi, sum, count = min(lo, r), max(hi, r), sum+r, count+1
			}
			if count > 0 {
				fmt.Printf("distortion dT/d over %d pairs: min %.2f  mean %.2f  max %.2f\n",
					count, lo, sum/float64(count), hi)
				if lo < 1 {
					fmt.Println("WARNING: contraction detected — this violates the FRT guarantee")
				}
			}
		}

		if *dotPath != "" {
			f, err := os.Create(*dotPath)
			if err != nil {
				return err
			}
			if err := errors.Join(tree.WriteDOT(f), f.Close()); err != nil {
				return err
			}
			fmt.Printf("wrote DOT to %s\n", *dotPath)
		}
		return nil
	}
}
