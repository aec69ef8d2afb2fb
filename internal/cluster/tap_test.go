package cluster

import (
	"bytes"

	"github.com/pombm/pombm/internal/wiretap"
)

var opKindKey = []byte(`"kind":`)

// opsIn counts the ops in the envelope a tapped frame carries.
func opsIn(f *wiretap.Frame) int { return bytes.Count(f.Payload, opKindKey) }

// countByNode tallies frames per node address and the ops they carry.
func countByNode(frames []*wiretap.Frame) (byNode map[string]int, ops int) {
	byNode = map[string]int{}
	for _, f := range frames {
		byNode[f.Node]++
		ops += opsIn(f)
	}
	return byNode, ops
}
