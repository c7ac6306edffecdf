package topo

// The binomial tree of the collectives, over n members numbered by
// virtual rank with the root at 0: the parent of vr > 0 is vr with its
// lowest set bit cleared, and the children of vr are vr + 2^k for every
// 2^k below that bit (below n, for the root) with vr + 2^k < n. It has
// ⌈log₂ n⌉ levels, the tree Eq. 5 prices the team broadcast and
// reduction by. A broadcast forwards to the children largest subtree
// first; a reduction folds them nearest first, then sends to the parent.
// The runtime's walkers (internal/comm) and the network simulator
// (internal/netsim) both walk it from here.

// BinomialParent returns the parent of virtual rank vr > 0.
func BinomialParent(vr int) int { return vr & (vr - 1) }

// BinomialChildren returns the number of children of virtual rank vr in
// the tree over n members; child k, for k below it, is vr + 1<<k.
func BinomialChildren(vr, n int) int {
	k := 0
	for vr+1<<k < n && (vr == 0 || 1<<k < vr&-vr) {
		k++
	}
	return k
}
