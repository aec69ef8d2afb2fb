package cluster

import "github.com/pombm/pombm/internal/hst"

// DefaultShards is the cut's shard count when Config.Shards is 0.
const DefaultShards = 8

// Layout is the coordinator's cut of the population for a (tree, shard
// count) pair: how many shards there are, how codes map to them, and which
// shards must share a node. Every worker that shares a code's first digit
// lands in the code's group, so a node resolves every LCA below the root on
// its own, and only the root tier spans nodes.
type Layout struct {
	// Shards is the effective shard count after rounding (see LayoutFor).
	Shards int
	// Degree and Depth echo the tree.
	Degree int
	Depth  int
	// Sub is the second-digit split factor: shard (d0, t) holds the codes
	// that start with digit d0 and whose second digit is ≡ t mod Sub, at
	// index d0 + Degree·t. Sub == 1 is plain first-digit sharding.
	Sub int
}

// LayoutFor rounds a requested shard count to the grid the tree supports:
// ≤ 0 selects DefaultShards; counts up to the tree's degree shard by first
// digit (digit d in shard d mod count); a count beyond the degree splits
// every first digit by its second (rounded down to a full degree×Sub grid,
// capped at degree², and requiring depth ≥ 2). A tree of depth 0 has one
// shard.
func LayoutFor(tree *hst.Tree, shards int) Layout {
	if shards <= 0 {
		shards = DefaultShards
	}
	l := Layout{Degree: tree.Degree(), Depth: tree.Depth(), Sub: 1}
	if l.Depth == 0 || l.Degree == 0 {
		shards = 1
	}
	if l.Degree > 0 && l.Depth > 0 && shards > l.Degree {
		// Sub is capped at the degree — beyond that a third digit would be
		// needed — and the count rounds down to the full grid so every
		// (first digit, second-digit group) pair owns exactly one shard.
		if l.Depth >= 2 {
			l.Sub = min(shards/l.Degree, l.Degree)
		}
		shards = l.Degree * l.Sub
	}
	l.Shards = shards
	return l
}

// ShardIdx returns the shard owning a code.
func (l Layout) ShardIdx(code hst.Code) int {
	if l.Depth == 0 || l.Shards == 1 {
		return 0
	}
	if l.Sub > 1 {
		return int(code[0]) + l.Degree*(int(code[1])%l.Sub)
	}
	return int(code[0]) % l.Shards
}

// GroupOf returns the routable shard group a code belongs to: the unit that
// must stay whole on one node for the node's pop below the root to be
// exact. Under sub-sharding a group is a first digit's sub-shards; under
// plain sharding each shard is its own group.
func (l Layout) GroupOf(code hst.Code) int {
	s := l.ShardIdx(code)
	if l.Sub > 1 {
		return s % l.Degree
	}
	return s
}
