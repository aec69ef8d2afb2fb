package cluster

import (
	"bytes"

	"github.com/pombm/pombm/internal/wiretap"
)

var opKindKey = []byte(`"kind":`)

// opsIn counts the ops in the envelope a tapped frame carries.
func opsIn(f *wiretap.Frame) int { return bytes.Count(f.Payload, opKindKey) }

// countByNode tallies, of the frames that carry key — opKindKey for any op,
// `"kind":"consume"` for one kind — how many went to each node address, and
// the ops of that kind they carry in all.
func countByNode(frames []*wiretap.Frame, key []byte) (byNode map[string]int, ops int) {
	byNode = map[string]int{}
	for _, f := range frames {
		if n := bytes.Count(f.Payload, key); n > 0 {
			byNode[f.Node]++
			ops += n
		}
	}
	return byNode, ops
}
