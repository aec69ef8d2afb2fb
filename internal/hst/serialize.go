package hst

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/wire"
)

// Published is the wire form of an HST: exactly the information the server
// publishes to workers and tasks (Sec. III-A step 1). Clients need the
// predefined points (to snap their location), each point's leaf code, and
// the completion parameters (D, c) that drive the obfuscation mechanism;
// the internal cluster structure stays on the server.
type Published struct {
	Depth  int         `json:"depth"`
	Degree int         `json:"degree"`
	Beta   float64     `json:"beta"`
	Scale  float64     `json:"scale"`
	Points []geo.Point `json:"points"`
	Codes  [][]byte    `json:"codes"` // Codes[i] is the leaf code of Points[i]
}

// Publish returns the wire form of the tree.
func (t *Tree) Publish() *Published {
	codes := make([][]byte, len(t.codes))
	for i, c := range t.codes {
		codes[i] = []byte(c)
	}
	return &Published{
		Depth:  t.depth,
		Degree: t.degree,
		Beta:   t.beta,
		Scale:  t.scale,
		Points: t.pts,
		Codes:  codes,
	}
}

// Tree reconstructs a Tree from its published form. The reconstructed tree
// has no cluster structure (Root returns nil) but supports every code
// operation, the privacy mechanism, and matching.
func (p *Published) Tree() (*Tree, error) {
	if p.Depth < 1 {
		return nil, fmt.Errorf("hst: published depth %d invalid", p.Depth)
	}
	if p.Degree < 1 || p.Degree > 255 {
		return nil, fmt.Errorf("hst: published degree %d invalid", p.Degree)
	}
	if !(p.Beta >= 0.5 && p.Beta <= 1) {
		return nil, fmt.Errorf("%w (published %v)", ErrBadBeta, p.Beta)
	}
	if !(p.Scale > 0) || math.IsInf(p.Scale, 1) {
		return nil, fmt.Errorf("hst: published scale %v invalid", p.Scale)
	}
	if len(p.Points) == 0 {
		return nil, ErrNoPoints
	}
	if len(p.Codes) != len(p.Points) {
		return nil, fmt.Errorf("hst: %d codes for %d points", len(p.Codes), len(p.Points))
	}
	for i, pt := range p.Points {
		if !pt.IsFinite() {
			return nil, fmt.Errorf("hst: published point %d is not finite", i)
		}
	}
	t := &Tree{
		pts:    p.Points,
		beta:   p.Beta,
		scale:  p.Scale,
		depth:  p.Depth,
		degree: p.Degree,
		codes:  make([]Code, len(p.Codes)),
		byCode: make(map[Code]int, len(p.Codes)),
	}
	for i, raw := range p.Codes {
		c := Code(raw)
		if !t.ValidCode(c) {
			return nil, fmt.Errorf("hst: published code %d malformed", i)
		}
		if prev, dup := t.byCode[c]; dup {
			return nil, fmt.Errorf("hst: published codes %d and %d collide", prev, i)
		}
		t.codes[i] = c
		t.byCode[c] = i
	}
	return t, nil
}

// The published tree's codec: an append encoder that writes what
// json.Marshal(t.Publish()) writes, byte for byte, and a scanner that reads
// the canonical bytes — what the encoder writes, in any member order, with
// whitespace and escapes — to the tree encoding/json would. UnmarshalJSON
// hands a document outside that grammar (a case-folded, unknown or repeated
// key, a null, a number no int or float64 holds, trailing data) to
// encoding/json whole, so every document is read, and refused, exactly as
// before; FuzzTreeCodec holds both directions to encoding/json.

var (
	publishedFields = []string{"depth", "degree", "beta", "scale", "points", "codes"}
	pointFields     = []string{"X", "Y"}
)

// AppendJSON appends the tree's published form as json.Marshal(t.Publish())
// writes it. A tree read or built by this package holds only finite
// numbers; a NaN or an infinity, which json.Marshal refuses, is written as
// bytes no JSON reader takes (see wire.AppendFloat).
func (t *Tree) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"depth":`...), int64(t.depth), 10)
	dst = strconv.AppendInt(append(dst, `,"degree":`...), int64(t.degree), 10)
	dst = wire.AppendFloat(append(dst, `,"beta":`...), t.beta)
	dst = wire.AppendFloat(append(dst, `,"scale":`...), t.scale)
	if t.pts == nil {
		dst = append(dst, `,"points":null`...)
	} else {
		dst = append(dst, `,"points":[`...)
		for i, p := range t.pts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendFloat(append(dst, `{"X":`...), p.X)
			dst = append(wire.AppendFloat(append(dst, `,"Y":`...), p.Y), '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"codes":[`...)
	for i, c := range t.codes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendBase64(dst, []byte(c))
	}
	return append(dst, "]}"...)
}

// ScanJSON consumes a published tree, as AppendJSON writes one, and
// reconstructs it as Published.Tree does.
func ScanJSON(s *wire.Scanner) (*Tree, error) {
	var p Published
	err := s.Object(publishedFields, func(name string) (err error) {
		switch name {
		case "depth":
			p.Depth, err = s.Int()
		case "degree":
			p.Degree, err = s.Int()
		case "beta":
			p.Beta, err = s.Float()
		case "scale":
			p.Scale, err = s.Float()
		case "points":
			p.Points = []geo.Point{}
			err = s.Array(func() error {
				var pt geo.Point
				err := s.Object(pointFields, func(name string) (err error) {
					if name == "X" {
						pt.X, err = s.Float()
					} else {
						pt.Y, err = s.Float()
					}
					return err
				})
				p.Points = append(p.Points, pt)
				return err
			})
		case "codes":
			p.Codes = [][]byte{}
			err = s.Array(func() error {
				code, err := s.Base64([]byte{})
				p.Codes = append(p.Codes, code)
				return err
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return p.Tree()
}

// MarshalJSON serialises the tree in its published form.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil), nil
}

// UnmarshalJSON reconstructs a tree from its published form: through the
// scanner when data is canonical, else through encoding/json.
func (t *Tree) UnmarshalJSON(data []byte) error {
	s := wire.Scan(data)
	nt, err := ScanJSON(&s)
	if err == nil {
		err = s.End()
	}
	if err != nil {
		var p Published
		if err := json.Unmarshal(data, &p); err != nil {
			return err
		}
		if nt, err = p.Tree(); err != nil {
			return err
		}
	}
	*t = *nt
	return nil
}
