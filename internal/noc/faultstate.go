package noc

import "fmt"

// FaultStats counts the engine-level effects of injected faults. All counters
// stay zero (and cost nothing to maintain) until the first fault-related call
// touches the network; see Network.Faulty.
type FaultStats struct {
	// LinksDown is the number of directed links currently down.
	LinksDown int64 `json:"links_down"`
	// FrozenRouters is the number of routers currently frozen.
	FrozenRouters int64 `json:"frozen_routers"`
	// DowntimeCycles accumulates, per cycle, the number of directed links
	// down during that cycle (i.e. the sum of per-link downtimes).
	DowntimeCycles int64 `json:"downtime_cycles"`
	// Requeued counts messages pulled out of harm's way instead of being lost
	// in flight: off a killed link back into the upstream router's buffer, or
	// stranded by a routing-table change and requeued at their source node
	// (RequeueStranded).
	Requeued int64 `json:"requeued"`
	// Reroutes counts grants whose output port deviated from the X-Y port —
	// messages actively routed around damage by a fault-aware Routing.
	Reroutes int64 `json:"reroutes"`
	// Unreachable counts messages evicted with an explicit
	// unreachable-destination verdict (RouteUnreachable).
	Unreachable int64 `json:"unreachable"`
}

// Faulty reports whether any fault machinery has touched the network: a link
// taken down, a router frozen, or a custom Routing installed. While false,
// the fault layer is zero-cost: Step takes the exact code path of a
// fault-free network.
func (n *Network) Faulty() bool { return n.faulty }

// FaultStats returns a copy of the accumulated fault counters.
func (n *Network) FaultStats() FaultStats { return n.fstats }

// SetUnreachableHandler installs f to run whenever the engine evicts a
// message whose route is an unreachable verdict. The previous handler (if
// any) is replaced. f runs inside Network.Step and must not call Step.
func (n *Network) SetUnreachableHandler(f func(now int64, r *Router, m *Message)) {
	n.onUnreachable = f
}

// SetLinkDown sets the state of the directed link leaving router rid through
// port p. Taking a link down removes it from arbitration — the output
// accepts no further grants and, being unable to deliver, effectively
// returns no credits — and requeues any message currently serializing
// across it at the upstream router (the returned count), so in-flight
// messages are never lost to a link kill. Taking a node's attach port down
// also blocks that node's injections. Restoring a link (down=false) is
// immediate. It panics on an unconnected port.
func (n *Network) SetLinkDown(rid int, p PortID, down bool) int {
	r := n.routers[rid]
	if !r.HasPort(p) {
		panic(fmt.Sprintf("noc: SetLinkDown on unconnected port %s of %s", p, r))
	}
	if r.linkDown[p] == down {
		return 0
	}
	r.linkDown[p] = down
	n.faulty = true
	// A link transition (either direction) can change the routing verdict of
	// any buffered head anywhere in the network.
	n.markAllEvictDirty()
	if !down {
		n.fstats.LinksDown--
		return 0
	}
	n.fstats.LinksDown++
	return n.requeueLink(r, p)
}

// FreezeRouter sets the frozen state of router rid. A frozen router makes no
// grants on any output; messages already heading toward it still land in its
// input buffers.
func (n *Network) FreezeRouter(rid int, frozen bool) {
	r := n.routers[rid]
	if r.frozen == frozen {
		return
	}
	r.frozen = frozen
	n.faulty = true
	// Frozen routers are skipped by the eviction sweep without clearing their
	// dirty bit, so marks accumulated while frozen survive to the unfreeze;
	// mark here as well so the transition itself forces a re-probe.
	n.markEvictDirty(r)
	if frozen {
		n.fstats.FrozenRouters++
	} else {
		n.fstats.FrozenRouters--
	}
}

// requeueLink pulls every delivery still in flight across the dead directed
// link (r, p) off the wheel and requeues the messages at the upstream router
// r, in the input buffer of port p for their class. The buffer may
// transiently exceed its capacity (it accepts no new arrivals until it
// drains below cap); this is the price of never losing a granted message.
func (n *Network) requeueLink(r *Router, p PortID) int {
	next := r.peerRouter[p]
	node := r.peerNode[p]
	requeued := 0
	for s := range n.wheel {
		ds := n.wheel[s]
		kept := ds[:0]
		for _, d := range ds {
			hit := false
			if next != nil && d.router == next && d.port == p.Opposite() {
				hit = true
			}
			if node != nil && d.node == node {
				hit = true
			}
			if !hit {
				kept = append(kept, d)
				continue
			}
			if d.router != nil {
				// Undo the downstream buffer reservation and the hop count
				// credited at grant time.
				d.router.in[d.port][d.vc].reserved--
				d.msg.HopCount--
			}
			n.pending--
			requeued++
			n.fstats.Requeued++
			r.in[p][d.msg.Class].push(n.cycle, d.msg)
			if len(n.faultObs) > 0 {
				n.observeRequeue(r, p, d.msg)
			}
		}
		for i := len(kept); i < len(ds); i++ {
			ds[i] = delivery{}
		}
		n.wheel[s] = kept
	}
	return requeued
}

// RequeueStranded scans every router input buffer and every delivery still in
// flight on a link, removes each message for which strand reports true, and
// requeues it at its source node's injection queue. Fault-aware routings call
// it after a table rebuild to pull out messages whose buffered position has no
// legal continuation under the new tables (e.g. an up*/down* phase violation
// left behind by a reorientation); strand may also normalize per-message
// routing state in place for messages it keeps.
//
// A requeued message keeps its GenCycle — source-to-sink latency still charges
// the wasted excursion — but its original injection is uncounted and recounted
// when it re-enters, so the conservation identity
// Injected == Delivered + Unreachable + InFlight holds at every instant.
func (n *Network) RequeueStranded(strand func(r *Router, p PortID, m *Message) bool) int {
	requeued := 0
	reinject := func(r *Router, p PortID, m *Message) {
		n.stats.Injected--
		n.inflightCount--
		n.inflightBase -= m.InjectCycle
		n.inflightBySrc[m.Src]--
		n.fstats.Requeued++
		requeued++
		if len(n.faultObs) > 0 {
			n.observeRequeue(r, p, m)
		}
		n.nodes[m.Src].Inject(m)
	}
	for _, r := range n.routers {
		for p := PortID(0); p < MaxPorts; p++ {
			for _, buf := range r.in[p] {
				kept := buf.q[:0]
				for _, m := range buf.q {
					if strand(r, p, m) {
						reinject(r, p, m)
					} else {
						kept = append(kept, m)
					}
				}
				for i := len(kept); i < len(buf.q); i++ {
					buf.q[i] = nil
				}
				buf.q = kept
				// The queue was rewritten in place, bypassing push/pop:
				// re-derive the occupancy bit.
				buf.syncOcc()
			}
		}
	}
	for s := range n.wheel {
		ds := n.wheel[s]
		kept := ds[:0]
		for _, d := range ds {
			// Deliveries to a router input buffer are mid-link messages; the
			// channel they occupy is the one feeding (d.router, d.port).
			// Ejections to a node always sink and are never stranded.
			if d.router == nil || !strand(d.router, d.port, d.msg) {
				kept = append(kept, d)
				continue
			}
			d.router.in[d.port][d.vc].reserved--
			d.msg.HopCount--
			n.pending--
			reinject(d.router, d.port, d.msg)
		}
		for i := len(kept); i < len(ds); i++ {
			ds[i] = delivery{}
		}
		n.wheel[s] = kept
	}
	return requeued
}

// evictUnreachable pops head messages whose route is an unreachable verdict
// from every input buffer of r, counting and reporting each one. The engine
// calls it when a router's scan meets an unreachable head (see shard.go).
func (n *Network) evictUnreachable(r *Router) {
	for p := PortID(0); p < MaxPorts; p++ {
		bufs := r.in[p]
		if bufs == nil {
			continue
		}
		for _, buf := range bufs {
			for {
				m := buf.Head()
				if m == nil || r.Route(m) != RouteUnreachable {
					break
				}
				buf.pop()
				n.fstats.Unreachable++
				n.inflightCount--
				n.inflightBase -= m.InjectCycle
				n.inflightBySrc[m.Src]--
				if n.onUnreachable != nil {
					n.onUnreachable(n.cycle, r, m)
				}
				if len(n.faultObs) > 0 {
					n.observeUnreachable(r, m)
				}
				n.recycleMessage(m)
			}
		}
	}
}
