package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// attachRouting is an X-Y routing that declares a destination unreachable
// while its attach link is down — verdicts are a pure function of (message
// destination, live link state), as the Routing contract requires, and fault
// schedules can create and repair unreachable heads mid-run.
type attachRouting struct{}

func (attachRouting) Name() string { return "attach-xy" }
func (attachRouting) Route(r *Router, m *Message) PortID {
	dst := r.net.nodes[m.Dst]
	if dst.Router.linkDown[dst.Port] {
		return RouteUnreachable
	}
	return r.XYPort(m)
}

// TestActiveSetInvariance pins the active-set engine against the full-scan
// reference: delivery traces and stats are bit-identical on mesh and torus,
// for an order-sensitive per-output policy and an order-sensitive
// whole-router matcher, sequentially and for every shard count — with the
// fork threshold both forced off and forced unreachably high (sequential
// stepping under SetShards).
func TestActiveSetInvariance(t *testing.T) {
	cfgs := map[string]Config{
		"mesh8x8":  {Width: 8, Height: 8, VCs: 3, BufferCap: 2},
		"torus8x8": {Width: 8, Height: 8, VCs: 3, BufferCap: 2, Torus: true},
	}
	policies := map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}}
	for cname, cfg := range cfgs {
		for pname, pol := range policies {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				base, baseLog := shardRun(t, pol, cfg, refEngine, 600, nil, nil)
				// Sequential active-set.
				net, log := shardRun(t, pol, cfg, 1, 600, nil, nil)
				requireIdentical(t, 1, base, baseLog, net, log)
				// Sharded active-set, forking every cycle.
				for _, k := range []int{2, 4, 8} {
					net, log := shardRun(t, pol, cfg, k, 600, nil, nil)
					requireIdentical(t, k, base, baseLog, net, log)
				}
				// Sharded config whose threshold never engages: every cycle
				// must fall through to sequential stepping.
				net, log = shardRun(t, pol, cfg, 4, 600, nil, nil,
					func(n *Network) { n.shardMinActive = 1 << 20 })
				if net.shardForks != 0 {
					t.Fatalf("fork ran %d times despite an unreachable threshold", net.shardForks)
				}
				requireIdentical(t, 4, base, baseLog, net, log)
			})
		}
	}
}

// TestActiveSetInvarianceFaulted runs the mid-run link-kill + freeze schedule
// under built-in X-Y routing: the active-set engine must keep the faulty-mode
// rules (frozen-router skip, eviction sweep, attach-link injection block)
// bit-identical to the full-scan reference, sequentially and sharded.
func TestActiveSetInvarianceFaulted(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	faults := func(net *Network, cycle int) {
		switch cycle {
		case 200:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, true)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, true)
			net.SetLinkDown(net.RouterAt(1, 6).ID(), PortCore, true)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), true)
		case 450:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, false)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, false)
			net.SetLinkDown(net.RouterAt(1, 6).ID(), PortCore, false)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), false)
		}
	}
	for pname, pol := range map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}} {
		t.Run(pname, func(t *testing.T) {
			base, baseLog := shardRun(t, pol, cfg, refEngine, 600, nil, faults)
			if base.FaultStats().Requeued == 0 {
				t.Fatal("fault schedule requeued nothing; scenario is vacuous")
			}
			for _, k := range []int{1, 2, 4, 8} {
				net, log := shardRun(t, pol, cfg, k, 600, nil, faults)
				requireIdentical(t, k, base, baseLog, net, log)
			}
		})
	}
}

// attachOutage kills node 10's attach link at cycle 150 and repairs it at
// 400: under attachRouting, in-flight traffic toward it becomes unreachable
// and then routable again.
func attachOutage(net *Network, cycle int) {
	r := net.Node(10).Router
	switch cycle {
	case 150:
		net.SetLinkDown(r.ID(), net.Node(10).Port, true)
	case 400:
		net.SetLinkDown(r.ID(), net.Node(10).Port, false)
	}
}

// TestActiveSetInvarianceUnreachable drives a run where a fault schedule makes
// buffered heads unreachable mid-flight (attach link killed, later repaired):
// lazy eviction must find and evict exactly the same messages as the
// reference's unconditional per-cycle probe, sequentially and sharded.
func TestActiveSetInvarianceUnreachable(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	base, baseLog := shardRun(t, orderPolicy{}, cfg, refEngine, 600, attachRouting{}, attachOutage)
	if base.FaultStats().Unreachable == 0 {
		t.Fatal("no unreachable evictions; lazy eviction path not exercised")
	}
	for _, k := range []int{1, 2, 4, 8} {
		net, log := shardRun(t, orderPolicy{}, cfg, k, 600, attachRouting{}, attachOutage)
		requireIdentical(t, k, base, baseLog, net, log)
		fs := net.FaultStats()
		if net.Stats().Injected != net.Stats().Delivered+fs.Unreachable+net.InFlight() {
			t.Fatalf("K=%d conservation broken: injected=%d delivered=%d unreachable=%d inflight=%d",
				k, net.Stats().Injected, net.Stats().Delivered, fs.Unreachable, net.InFlight())
		}
	}
}

// checkBitmaps recomputes the activity bitmaps brute-force from the buffer
// and queue state and diffs them against the incrementally maintained ones.
func checkBitmaps(t *testing.T, net *Network, when string) {
	t.Helper()
	count := 0
	for _, r := range net.routers {
		// Re-derive occ from the buffers, then the activity bit from occ.
		var occ uint64
		for p := PortID(0); p < MaxPorts; p++ {
			for vc, buf := range r.in[p] {
				if buf.Len() > 0 {
					occ |= 1 << uint(int(p)*net.cfg.VCs+vc)
				}
			}
		}
		if occ != r.occ {
			t.Fatalf("%s: router %d occ = %b, brute force %b", when, r.id, r.occ, occ)
		}
		got := net.actR[r.actWord]&r.actMask != 0
		if want := occ != 0; got != want {
			t.Fatalf("%s: router %d activity bit = %v, occ = %b", when, r.id, got, occ)
		}
		if occ != 0 {
			count++
		}
	}
	if count != net.actRCount {
		t.Fatalf("%s: actRCount = %d, brute force %d", when, net.actRCount, count)
	}
	for wi, word := range net.actR {
		pop := 0
		for _, r := range net.routers {
			if r.actWord == wi && r.occ != 0 {
				pop++
			}
		}
		if bits.OnesCount64(word) != pop {
			t.Fatalf("%s: actR word %d popcount = %d, brute force %d", when, wi, bits.OnesCount64(word), pop)
		}
	}
	for _, nd := range net.nodes {
		got := net.actN[nd.ID>>6]&(1<<(uint(nd.ID)&63)) != 0
		if want := nd.PendingInjections() > 0; got != want {
			t.Fatalf("%s: node %d activity bit = %v, pending = %d", when, nd.ID, got, nd.PendingInjections())
		}
	}
}

// checkDirtySuperset verifies the lazy-eviction soundness invariant: an
// active, unfrozen router whose evict-dirty bit is clear has no buffered head
// with an unreachable verdict. (Probing is safe here because attachRouting
// is pure.)
func checkDirtySuperset(t *testing.T, net *Network, when string) {
	t.Helper()
	for _, r := range net.routers {
		if r.occ == 0 || r.frozen || net.evictDirty[r.actWord]&r.actMask != 0 {
			continue
		}
		for p := PortID(0); p < MaxPorts; p++ {
			for _, buf := range r.in[p] {
				if m := buf.Head(); m != nil && r.Route(m) == RouteUnreachable {
					t.Fatalf("%s: router %d is clean but head %s is unreachable", when, r.id, m)
				}
			}
		}
	}
}

// TestActiveSetBitmapInvariants fuzzes a small faulted mesh — random
// injections, link kills and repairs, freezes, wholesale requeues — and
// recomputes every activity bitmap brute-force after each step. This is the
// safety net for the incremental maintenance in Buffer.push/pop/syncOcc,
// Node.Inject/dequeue and the fault transitions.
func TestActiveSetBitmapInvariants(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 2, BufferCap: 2})
	net.SetPolicy(orderPolicy{})
	net.SetRouting(attachRouting{})
	rng := rand.New(rand.NewSource(11))
	var id uint64
	downAttach := -1 // node whose attach link is currently down
	for cycle := 0; cycle < 800; cycle++ {
		for i, nd := range nodes {
			if rng.Float64() >= 0.4 {
				continue
			}
			d := rng.Intn(len(nodes) - 1)
			if d >= i {
				d++
			}
			id++
			m := net.AllocMessage()
			m.ID = id
			m.Dst = nodes[d].ID
			m.Class = Class(rng.Intn(2))
			m.SizeFlits = 1 + rng.Intn(2)
			nd.Inject(m)
		}
		switch {
		case cycle%97 == 13:
			if downAttach >= 0 {
				nd := net.Node(NodeID(downAttach))
				net.SetLinkDown(nd.Router.ID(), nd.Port, false)
			}
			downAttach = rng.Intn(len(nodes))
			nd := net.Node(NodeID(downAttach))
			net.SetLinkDown(nd.Router.ID(), nd.Port, true)
		case cycle%131 == 40:
			rid := rng.Intn(len(net.routers))
			net.FreezeRouter(rid, !net.routers[rid].frozen)
		case cycle%211 == 77:
			// Strand every message bound for a random destination.
			victim := NodeID(rng.Intn(len(nodes)))
			net.RequeueStranded(func(r *Router, p PortID, m *Message) bool {
				return m.Dst == victim
			})
		}
		net.Step()
		when := fmt.Sprintf("cycle %d", cycle)
		checkBitmaps(t, net, when)
		checkDirtySuperset(t, net, when)
	}
	// Repair and drain so the terminal state is checked empty.
	if downAttach >= 0 {
		nd := net.Node(NodeID(downAttach))
		net.SetLinkDown(nd.Router.ID(), nd.Port, false)
	}
	for _, r := range net.routers {
		if r.frozen {
			net.FreezeRouter(r.id, false)
		}
	}
	net.Drain(20000)
	checkBitmaps(t, net, "after drain")
	if net.actRCount != 0 {
		t.Fatalf("drained network has %d active routers", net.actRCount)
	}
}

// TestActiveSetShardThreshold white-boxes the fork gate: below the per-shard
// activity threshold a sharded network must step sequentially, above it the
// parallel scans must fork, and both regimes stay bit-identical (covered by
// TestActiveSetInvariance; here the gate itself is probed).
func TestActiveSetShardThreshold(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 8, Height: 8, VCs: 2, BufferCap: 4})
	net.SetPolicy(orderPolicy{})
	net.SetShards(4)
	defer net.SetShards(1)

	// Empty network: no fork regardless of threshold.
	net.shardMinActive = 1
	net.Step()
	if net.shardForks != 0 {
		t.Fatalf("empty network forked %d times", net.shardForks)
	}

	// Park a little traffic in a frozen hub router so activity persists
	// across cycle boundaries (an unobstructed message is granted within its
	// arrival cycle and never shows at a boundary). One active router stays
	// below the 1-per-shard * 4-shard threshold: still sequential.
	hub := net.RouterAt(4, 4)
	net.FreezeRouter(hub.ID(), true)
	for i, src := range []int{35, 37} {
		m := net.AllocMessage()
		m.ID = uint64(i + 1)
		m.Dst = nodes[36].ID // the node attached to the frozen hub
		m.SizeFlits = 1
		nodes[src].Inject(m)
	}
	net.Run(5)
	if net.ActiveRouters() == 0 {
		t.Fatal("parked messages did not keep their router active")
	}
	if net.shardForks != 0 {
		t.Fatalf("%d active routers forked %d times with threshold 1/shard",
			net.ActiveRouters(), net.shardForks)
	}

	// Threshold zero: every cycle forks.
	net.shardMinActive = 0
	before := net.shardForks
	net.Step()
	if net.shardForks != before+1 {
		t.Fatalf("threshold 0 did not fork: %d -> %d", before, net.shardForks)
	}
	net.FreezeRouter(hub.ID(), false)
	net.Drain(4000)
}

// TestActiveSetToggleMidRun switches one network between Step and the
// full-scan reference every 150 cycles of a seeded run with mid-run
// unreachable heads and requires the combined trace to match a pure
// reference run: the activity bitmaps and evict-dirty marks stay exact under
// any interleaving of the two engines.
func TestActiveSetToggleMidRun(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	base, baseLog := shardRun(t, orderPolicy{}, cfg, refEngine, 600, attachRouting{}, attachOutage)
	net, log := shardRun(t, orderPolicy{}, cfg, toggleEngine, 600, attachRouting{}, attachOutage)
	requireIdentical(t, 1, base, baseLog, net, log)
}
