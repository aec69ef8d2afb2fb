package hst

import "encoding/binary"

// Cells is a paged column of counts in [0, MaxInt32], each in the narrowest
// of 1, 2 or 4 bytes that holds every count the column was given: a wider
// count widens every page, in one copy, straight to the width it needs. It
// never narrows, no count wraps, and at 4 B a page is an []int32's bytes.
// Pages of 1<<bits cells are appended zeroed; the zero Cells is off.
type Cells struct {
	pages [][]byte
	bits  uint8 // log2 of the cells on a page
	shift uint8 // log2 of a cell's bytes: 0, 1 or 2
}

// NewCells returns a column, on, of n zeroed pages of 1<<bits 1-byte cells.
func NewCells(bits, n int) Cells {
	c := Cells{pages: make([][]byte, 0, n), bits: uint8(bits)}
	for range n {
		c.AddPage()
	}
	return c
}

// On, Width and Bytes read whether the column is on, a cell's bytes and the
// pages' bytes; AddPage appends a zeroed page.
func (c *Cells) On() bool     { return c.pages != nil }
func (c *Cells) Width() int   { return 1 << c.shift }
func (c *Cells) Bytes() int64 { return int64(len(c.pages)) << c.bits << c.shift }
func (c *Cells) AddPage()     { c.pages = append(c.pages, make([]byte, 1<<c.bits<<c.shift)) }

// Get reads cell i.
func (c *Cells) Get(i int) int32 {
	p := c.pages[i>>c.bits][(i&(1<<c.bits-1))<<c.shift:]
	switch c.shift {
	case 0:
		return int32(p[0])
	case 1:
		return int32(binary.LittleEndian.Uint16(p))
	}
	return int32(binary.LittleEndian.Uint32(p))
}

// Set writes v to cell i, widening the column first when v needs it.
func (c *Cells) Set(i int, v int32) {
	if v < 0 {
		panic("hst: a negative count written to a cell")
	}
	if uint32(v)>>(8<<c.shift) != 0 {
		old := *c
		c.pages = make([][]byte, 0, len(old.pages))
		for uint32(v)>>(8<<c.shift) != 0 {
			c.shift++
		}
		for range old.pages {
			c.AddPage()
		}
		for j := range len(old.pages) << c.bits {
			c.Set(j, old.Get(j))
		}
	}
	p := c.pages[i>>c.bits][(i&(1<<c.bits-1))<<c.shift:]
	switch c.shift {
	case 0:
		p[0] = byte(v)
	case 1:
		binary.LittleEndian.PutUint16(p, uint16(v))
	default:
		binary.LittleEndian.PutUint32(p, uint32(v))
	}
}
