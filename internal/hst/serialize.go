package hst

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/pombm/pombm/internal/geo"
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
		if !t.validCode(c) {
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

// MarshalJSON serialises the tree in its published form.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Publish())
}

// UnmarshalJSON reconstructs a tree from its published form.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var p Published
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	nt, err := p.Tree()
	if err != nil {
		return err
	}
	*t = *nt
	return nil
}
