package noc

import "math/bits"

// The arbitration engine.
//
// Every cycle the arbitrate stage visits the active routers (actR, see
// activeset.go) in ascending ID order and, for each non-frozen one, runs two
// steps:
//
//   - Scan (scanRouter): route every buffered head once — one Route call per
//     head — and bucket the heads whose output port is grantable this cycle
//     into a per-router plan, in (input port, VC) ascending order. The scan
//     reads only committed state and writes only the plan, the router's
//     route-memo row and the scanned messages' routing scratch.
//   - Commit (commitRouter): per planned output in ascending order, drop the
//     heads whose input port an earlier output of the same router already
//     granted this cycle or whose downstream buffer is full, then Select (or
//     Match) and grant.
//
// Sequential stepping scans each router into one reused plan and commits it
// at once. SetShards(K) with K > 1 splits the router array into K contiguous
// shards and runs every scan first, in parallel, into per-router plans; one
// goroutine then commits the plans in the same ascending order. Because
// deliveries land on future cycles and a grant pops only from the granting
// router's own buffers, every router's heads are invariant across the whole
// arbitrate stage, so a scan is exact whenever it runs; the two facts that
// do move under the commit (granted input ports, downstream space) are
// re-checked live there. Policy calls, grants, delivery scheduling and all
// stats run only in the commit, in the same order for every K, so a seeded
// run is bit-identical across shard counts. See DESIGN.md §13.
//
// A scan that meets a RouteUnreachable head stops and flags the plan: the
// commit evicts the router's unreachable heads (evictUnreachable) and
// re-scans it before granting, because eviction exposes successors the first
// scan never routed.

// routerPlan is one router's scan output: for each output port with at least
// one grantable head, the candidate bucket in (input port, VC) ascending
// order.
type routerPlan struct {
	heads  [MaxPorts][]Candidate
	filled uint32 // bitmask of outputs with a non-empty bucket
	evict  bool   // an unreachable head stopped the scan
}

// SetShards sets the number of router shards scanned in parallel during
// arbitration. K <= 1 restores sequential stepping and stops the worker
// goroutines; K is clamped to the router count. Seeded runs are bit-identical
// across every K. Call SetShards(1) when done with a network to release its
// workers.
func (n *Network) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	if k > len(n.routers) {
		k = len(n.routers)
	}
	if k == n.shards || (k == 1 && n.shards == 0) {
		return
	}
	n.stopShardWorkers()
	n.shards = k
	if k == 1 {
		return
	}
	n.shardBounds = make([]int, k+1)
	for i := 0; i <= k; i++ {
		n.shardBounds[i] = i * len(n.routers) / k
	}
	if len(n.plans) != len(n.routers) {
		n.plans = make([]routerPlan, len(n.routers))
	}
	n.shardWake = make([]chan struct{}, k-1)
	n.shardDone = make(chan struct{}, k-1)
	for i := range n.shardWake {
		wake := make(chan struct{}, 1)
		n.shardWake[i] = wake
		shard := i + 1
		go func() {
			for range wake {
				n.scanShard(shard)
				n.shardDone <- struct{}{}
			}
		}()
	}
}

// Shards returns the configured shard count (1 when sequential).
func (n *Network) Shards() int {
	if n.shards < 1 {
		return 1
	}
	return n.shards
}

// stopShardWorkers terminates the scan worker goroutines. Only called between
// cycles, so no wake is ever pending when the channels close.
func (n *Network) stopShardWorkers() {
	for _, wake := range n.shardWake {
		close(wake)
	}
	n.shardWake = nil
	n.shardDone = nil
}

// arbitrate runs one cycle's arbitration over the active routers. A sharded
// network forks its parallel scans only when at least shardMinActive routers
// per shard are active; below that the barrier costs more than it saves and
// the cycle steps sequentially (bit-identical either way).
func (n *Network) arbitrate() {
	if n.routing == nil {
		n.ensureRouteMemo()
	}
	sharded := n.shards > 1 && n.actRCount >= n.shardMinActive*n.shards
	if sharded {
		n.shardForks++
		for _, wake := range n.shardWake {
			wake <- struct{}{}
		}
		n.scanShard(0)
		for range n.shardWake {
			<-n.shardDone
		}
	}
	n.arbCtx = ArbContext{Net: n, Cycle: n.cycle}
	n.matchCtx = MatchContext{Net: n, Cycle: n.cycle}
	// Per-word snapshots of actR are safe: no activity bit is set during
	// arbitration (deliveries land on future cycles, grants and evictions
	// only pop), and a mid-word clear can only come from the router being
	// committed.
	for wi, word := range n.actR {
		base := wi << 6
		for ; word != 0; word &= word - 1 {
			r := n.routers[base+bits.TrailingZeros64(word)]
			if r.frozen {
				continue
			}
			p := &n.plan
			if sharded {
				p = &n.plans[r.id]
			} else {
				n.scanRouter(r, p)
			}
			n.commitRouter(r, p)
		}
	}
}

// scanShard scans every active, non-frozen router of one shard into its plan.
// It runs concurrently with the other shards' scans and must only write
// shard-owned state (see the file comment). Plans of skipped routers go
// stale, which is fine: the commit walks the same activity snapshot, so a
// plan is only read in the cycle that refreshed it.
func (n *Network) scanShard(shard int) {
	lo, hi := n.shardBounds[shard], n.shardBounds[shard+1]
	loWord, hiWord := lo>>6, (hi+63)>>6
	for wi := loWord; wi < hiWord; wi++ {
		word := n.actR[wi]
		if wi == loWord {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		if wi<<6+64 > hi {
			word &= (1 << (uint(hi) & 63)) - 1
		}
		base := wi << 6
		for ; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			if r := n.routers[id]; !r.frozen {
				n.scanRouter(r, &n.plans[id])
			}
		}
	}
}

// scanRouter routes every buffered head of r once and buckets the heads whose
// output is free this cycle into p. When no output is free the heads are
// routed only to find unreachable verdicts, so the scan is skipped where
// none can exist: built-in X-Y routing never returns one, and under an
// installed Routing a clean evict-dirty bit proves every head reachable (see
// the Routing contract).
func (n *Network) scanRouter(r *Router, p *routerPlan) {
	p.filled = 0
	p.evict = false
	var free uint32
	for out := PortID(0); out < MaxPorts; out++ {
		if r.HasPort(out) && !r.linkDown[out] && !r.OutputBusy(out, n.cycle) {
			free |= 1 << out
		}
	}
	rt := n.routing
	if free == 0 && (rt == nil || n.evictDirty[r.actWord]&r.actMask == 0) {
		return
	}
	vcs := n.cfg.VCs
	for mask := r.occ; mask != 0; mask &= mask - 1 {
		bit := bits.TrailingZeros64(mask)
		port := PortID(bit / vcs)
		vc := bit - int(port)*vcs
		m := r.in[port][vc].q[0]
		var out PortID
		if rt != nil {
			out = rt.Route(r, m)
		} else {
			out = n.xyRouteMemo(r, m)
		}
		if out == RouteUnreachable {
			p.filled = 0
			p.evict = true
			return
		}
		if uint(out) >= MaxPorts || free&(1<<out) == 0 {
			continue
		}
		if p.filled&(1<<out) == 0 {
			p.filled |= 1 << out
			p.heads[out] = p.heads[out][:0]
		}
		p.heads[out] = append(p.heads[out], Candidate{Port: port, VC: vc, Msg: m})
	}
}

// commitRouter grants from r's plan. An evict-flagged plan first evicts r's
// unreachable heads and re-scans. The evict-dirty bit is cleared once every
// head's verdict is known — after the scan and any eviction, before grant
// pops can expose new heads and re-mark it.
func (n *Network) commitRouter(r *Router, p *routerPlan) {
	if p.evict {
		n.evictUnreachable(r)
		n.scanRouter(r, p)
	}
	n.evictDirty[r.actWord] &^= r.actMask
	if p.filled == 0 {
		return
	}
	if n.matcher != nil {
		reqs := n.reqScratch[:0]
		for out := PortID(0); out < MaxPorts; out++ {
			if p.filled&(1<<out) == 0 {
				continue
			}
			if cands := n.grantable(r, out, p.heads[out]); len(cands) > 0 {
				reqs = append(reqs, Request{Out: out, Cands: cands[:len(cands):len(cands)]})
			}
		}
		n.reqScratch = reqs
		n.matchAndApply(r, reqs)
		return
	}
	ctx := &n.arbCtx
	ctx.Router = r
	for out := PortID(0); out < MaxPorts; out++ {
		if p.filled&(1<<out) == 0 {
			continue
		}
		if cands := n.grantable(r, out, p.heads[out]); len(cands) > 0 {
			ctx.Out = out
			n.selectAndGrant(ctx, r, out, cands)
		}
	}
}

// grantable filters one planned bucket in place down to the heads that can
// still be granted out: their input port has not forwarded this cycle and
// their downstream buffer (for a hop) has space.
func (n *Network) grantable(r *Router, out PortID, bucket []Candidate) []Candidate {
	var down []*Buffer
	if next := r.peerRouter[out]; next != nil {
		down = next.in[out.Opposite()]
	}
	cands := bucket[:0]
	for _, c := range bucket {
		if r.inGrantedAt[c.Port] == n.cycle || (down != nil && !down[c.VC].Free()) {
			continue
		}
		cands = append(cands, c)
	}
	return cands
}
