package noc

// Active-set stepping.
//
// A large, lightly loaded topology would spend almost all of its per-cycle
// budget visiting routers and nodes that have nothing to do. The engine keeps
// three bitmaps so that inject, arbitrate and the unreachable-eviction probe
// cost O(active) per cycle rather than O(topology):
//
//   - actR is a router-activity bitmap: bit r is set iff router r has at
//     least one buffered message (occ != 0). It is maintained on the exact
//     0<->nonzero transitions of Router.occ inside Buffer.push/pop/syncOcc,
//     so it is never stale and costs one word-OR only when a router wakes or
//     drains. A router with occ == 0 produces no candidates on any output and
//     no eviction probes, so skipping it is exactly behaviour-preserving.
//   - actN is a node-activity bitmap: bit n is set iff node n has a pending
//     injection (maintained in Node.Inject and Node.dequeue). A node with an
//     empty injection queue is a no-op in inject().
//   - evictDirty marks routers whose buffer heads must be re-probed for
//     unreachable verdicts: a fault or routing transition sets every bit, and
//     any head change (push into an empty buffer, pop exposing a successor,
//     wholesale queue rewrites through syncOcc) sets the owning router's bit.
//     Because a Routing's verdict is a pure function of (router, message,
//     fault state), a clear bit proves no head of that router can carry an
//     unreachable verdict, so a router with no free output is only probed
//     after a transition touched it. Without an installed Routing the bit is
//     never consulted: built-in X-Y routing has no unreachable verdict.
//
// All three bitmaps are scanned with bits.TrailingZeros64, so visit order is
// ascending router/node ID, and results are identical to a full scan of every
// router and node (pinned against the test-only reference engine refStep).
//
// During arbitration no activity bit is ever set (deliveries land on future
// cycles; grants and evictions pop only from the arbitrated router's own
// buffers), so the per-word snapshot taken by the scan loops cannot miss a
// router. The one behavioural contract this adds: engine observers must not
// inject messages from inside ObserveInject (Sink and OnCycle remain the
// supported injection points) — see Observer.

// defaultShardMinActive is the default per-shard activity threshold of the
// sharded engine: the parallel scans only fork when at least this many
// routers per shard are active. Below it the fork/join barrier costs more
// than it parallelizes and the cycle steps sequentially (bit-identical
// either way).
const defaultShardMinActive = 64

// ActiveRouters returns the number of routers currently holding at least one
// buffered message — the size of the set arbitration visits.
func (n *Network) ActiveRouters() int { return n.actRCount }

// activateRouter and deactivateRouter maintain the router-activity bitmap and
// its population count. They are called exactly on the 0<->nonzero
// transitions of r.occ (Buffer push/pop/syncOcc), so the count never drifts.
func (n *Network) activateRouter(r *Router) {
	n.actR[r.actWord] |= r.actMask
	n.actRCount++
}

func (n *Network) deactivateRouter(r *Router) {
	n.actR[r.actWord] &^= r.actMask
	n.actRCount--
}

// markEvictDirty flags r for the next unreachable-eviction probe.
func (n *Network) markEvictDirty(r *Router) {
	n.evictDirty[r.actWord] |= r.actMask
}

// markAllEvictDirty flags every router, invalidating all cached probe
// verdicts. Called on fault and routing transitions (link state, freezes,
// SetRouting); queue rewrites mark per-router through syncOcc.
func (n *Network) markAllEvictDirty() {
	for i := range n.evictDirty {
		n.evictDirty[i] = ^uint64(0)
	}
}

// activateNode and deactivateNode maintain the node-activity bitmap on the
// empty<->non-empty transitions of a node's injection queue.
func (n *Network) activateNode(id NodeID) {
	n.actN[id>>6] |= 1 << (uint(id) & 63)
}

func (n *Network) deactivateNode(id NodeID) {
	n.actN[id>>6] &^= 1 << (uint(id) & 63)
}
