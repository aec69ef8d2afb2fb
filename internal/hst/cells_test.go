package hst

import (
	"math"
	"testing"
)

// cellEdges are the counts on either side of each width: a byte holds up to
// 255, two bytes up to 65,535, and four the int32 range.
var cellEdges = [...]int32{0, 1, 254, 255, 256, 65535, 65536, math.MaxInt32}

// FuzzCells drives a Cells column and an []int32 reference with one tape:
// each three bytes append a page, or Set a cell to an edge count, to a
// small one, or to its count plus the difference to an edge count. After every step
// each cell reads back its reference value exactly, across every widening
// and page edge, and the column is as wide as the largest count it was ever
// given needs, and no wider.
func FuzzCells(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 1, 2, 1, 2, 3, 1, 3, 4, 0, 0, 0, 1, 4, 5, 1, 5, 6, 1, 6, 7})
	f.Add(uint8(2), []byte{0, 0, 0, 0, 0, 0, 2, 7, 200, 1, 8, 4, 3, 8, 2, 1, 9, 6, 3, 9, 0})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 15, 7, 0, 0, 0, 1, 16, 3, 3, 15, 1, 2, 31, 255})
	f.Fuzz(func(t *testing.T, bits uint8, tape []byte) {
		b := 1 + int(bits%4) // 2–16 cells a page, so a short tape crosses page edges
		c := NewCells(b, 0)
		var ref []int32
		most := int32(0)
		for k := 0; k+2 < len(tape); k += 3 {
			op, at, v := tape[k], int(tape[k+1]), tape[k+2]
			if op%4 == 0 || len(ref) == 0 {
				c.AddPage()
				ref = append(ref, make([]int32, 1<<b)...)
				continue
			}
			i := at % len(ref)
			switch op % 4 {
			case 1:
				ref[i] = cellEdges[int(v)%len(cellEdges)]
				c.Set(i, ref[i])
			case 2:
				ref[i] = int32(v)
				c.Set(i, ref[i])
			case 3:
				want := cellEdges[int(v)%len(cellEdges)]
				c.Set(i, c.Get(i)+want-ref[i])
				ref[i] = want
			}
			most = max(most, ref[i])
			width := 4
			if most <= math.MaxUint8 {
				width = 1
			} else if most <= math.MaxUint16 {
				width = 2
			}
			if c.Width() != width || len(c.pages) != len(ref)>>b || c.Bytes() != int64(len(ref)*width) {
				t.Fatalf("largest count %d: %d B cells, %d pages, %d bytes; want %d B cells over %d cells",
					most, c.Width(), len(c.pages), c.Bytes(), width, len(ref))
			}
			for j, want := range ref {
				if got := c.Get(j); got != want {
					t.Fatalf("cell %d reads %d, want %d", j, got, want)
				}
			}
		}
	})
}

// TestCellsRefuseNegative pins that a count never wraps: a negative value
// is a bug in the caller, not a large count.
func TestCellsRefuseNegative(t *testing.T) {
	c := NewCells(2, 1)
	c.Set(3, 255)
	defer func() {
		if recover() == nil {
			t.Fatal("a negative count was stored")
		}
		if c.Get(3) != 255 || c.Width() != 1 {
			t.Fatalf("a refused write moved the column: cell %d, %d B", c.Get(3), c.Width())
		}
	}()
	c.Set(3, c.Get(3)-256)
}
