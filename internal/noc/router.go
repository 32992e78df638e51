package noc

import "fmt"

// Buffer is one virtual-channel input FIFO of a router port.
type Buffer struct {
	q        []*Message
	reserved int   // slots reserved by in-flight granted messages
	lastArr  int64 // cycle of the most recent arrival, -1 if none
	cap      int

	// owner/bit wire the buffer into its router's occupancy bitmask: bit
	// port*VCs+vc of owner.occ is set iff the buffer is non-empty.
	owner *Router
	bit   uint8
}

// Len returns the number of messages queued in the buffer.
func (b *Buffer) Len() int { return len(b.q) }

// Head returns the message at the head of the buffer, or nil if empty.
func (b *Buffer) Head() *Message {
	if len(b.q) == 0 {
		return nil
	}
	return b.q[0]
}

// Free reports whether the buffer can accept one more message, counting
// reservations made for messages currently in flight toward it.
func (b *Buffer) Free() bool { return len(b.q)+b.reserved < b.cap }

// At returns the i-th queued message (0 is the head).
func (b *Buffer) At(i int) *Message { return b.q[i] }

// Cap returns the buffer capacity in messages.
func (b *Buffer) Cap() int { return b.cap }

func (b *Buffer) push(now int64, m *Message) {
	if b.lastArr >= 0 {
		m.ArrivalGap = now - b.lastArr
	} else {
		m.ArrivalGap = 0
	}
	b.lastArr = now
	m.ArrivalCycle = now
	b.q = append(b.q, m)
	if len(b.q) == 1 {
		r := b.owner
		if r.occ == 0 {
			r.net.activateRouter(r)
		}
		r.occ |= 1 << b.bit
		// The push exposed a new head; its unreachable verdict is unknown.
		r.net.markEvictDirty(r)
	}
}

func (b *Buffer) pop() *Message {
	m := b.q[0]
	copy(b.q, b.q[1:])
	b.q[len(b.q)-1] = nil
	b.q = b.q[:len(b.q)-1]
	r := b.owner
	if len(b.q) == 0 {
		r.occ &^= 1 << b.bit
		if r.occ == 0 {
			r.net.deactivateRouter(r)
		}
	} else {
		// The pop exposed the successor as the new head; its unreachable
		// verdict is unknown.
		r.net.markEvictDirty(r)
	}
	return m
}

// syncOcc re-derives the buffer's occupancy bit from its queue length. Code
// that rewrites b.q wholesale (instead of going through push/pop) must call
// it afterwards.
func (b *Buffer) syncOcc() {
	r := b.owner
	was := r.occ
	if len(b.q) == 0 {
		r.occ &^= 1 << b.bit
	} else {
		r.occ |= 1 << b.bit
	}
	if was == 0 && r.occ != 0 {
		r.net.activateRouter(r)
	} else if was != 0 && r.occ == 0 {
		r.net.deactivateRouter(r)
	}
	// A wholesale queue rewrite may have put any message at the head.
	r.net.markEvictDirty(r)
}

// Router is one mesh router. Each port has one input buffer per virtual
// channel (message class). Output ports are arbitrated independently, one
// grant per cycle, and stay busy for the granted message's flit count.
type Router struct {
	id    int
	Coord Coord

	net *Network

	// peers[p] is what port p connects to: a neighboring router, an attached
	// node, or nothing.
	peerRouter [MaxPorts]*Router
	peerNode   [MaxPorts]*Node

	// in[p][vc] is the input buffer of port p, virtual channel vc. Ports
	// without a peer have nil buffer slices.
	in [MaxPorts][]*Buffer

	// outBusyUntil[p] is the first cycle at which output port p is free.
	outBusyUntil [MaxPorts]int64

	// inGrantedAt[p] is the last cycle input port p forwarded a message,
	// enforcing the one-message-per-input-port-per-cycle constraint.
	inGrantedAt [MaxPorts]int64

	// linkDown[p] marks the outgoing link at port p as failed: the output
	// accepts no grants until the link is restored (Network.SetLinkDown).
	linkDown [MaxPorts]bool

	// frozen marks the whole router as fault-frozen: it makes no grants,
	// though its input buffers still accept in-flight arrivals.
	frozen bool

	// occ is the input-buffer occupancy bitmask: bit p*VCs+vc is set iff
	// in[p][vc] is non-empty. Maintained by Buffer push/pop/syncOcc;
	// arbitration iterates set bits instead of scanning every (port, VC)
	// pair.
	occ uint64

	// actWord/actMask locate this router's bit in the network-level activity
	// and evict-dirty bitmaps (actWord = id/64, actMask = 1<<(id%64)),
	// precomputed so the occ 0<->nonzero transitions in Buffer push/pop cost
	// two loads and an OR instead of two shifts.
	actWord int
	actMask uint64

	nPorts int // number of connected ports (for stats/diagnostics)
}

// ID returns the router's dense index within its network.
func (r *Router) ID() int { return r.id }

// HasPort reports whether port p is connected (to a neighbor router or to an
// attached node).
func (r *Router) HasPort(p PortID) bool {
	return r.peerRouter[p] != nil || r.peerNode[p] != nil
}

// NumPorts returns the number of connected ports.
func (r *Router) NumPorts() int { return r.nPorts }

// Neighbor returns the router connected at direction port p, or nil.
func (r *Router) Neighbor(p PortID) *Router { return r.peerRouter[p] }

// AttachedNode returns the node attached at port p, or nil.
func (r *Router) AttachedNode(p PortID) *Node { return r.peerNode[p] }

// Buffer returns the input buffer for (port, vc), or nil if the port is not
// connected.
func (r *Router) Buffer(p PortID, vc int) *Buffer {
	if r.in[p] == nil {
		return nil
	}
	return r.in[p][vc]
}

// NumVCs returns the number of virtual channels per port.
func (r *Router) NumVCs() int { return r.net.cfg.VCs }

// OutputBusy reports whether output port p is still serializing a previously
// granted message at the given cycle.
func (r *Router) OutputBusy(p PortID, now int64) bool {
	return r.outBusyUntil[p] > now
}

// ForwardedThisCycle reports whether input port p forwarded a message during
// the given cycle. After arbitration (e.g. inside an OnCycle hook), a queued
// head on a port that did not forward was blocked for the cycle.
func (r *Router) ForwardedThisCycle(p PortID, now int64) bool {
	return r.inGrantedAt[p] == now
}

// QueuedMessages returns the total number of messages queued in all input
// buffers of the router.
func (r *Router) QueuedMessages() int {
	total := 0
	for p := 0; p < MaxPorts; p++ {
		for _, b := range r.in[p] {
			total += b.Len()
		}
	}
	return total
}

// LinkUp reports whether the outgoing link at port p is healthy. Ports never
// taken down by Network.SetLinkDown are always up.
func (r *Router) LinkUp(p PortID) bool { return !r.linkDown[p] }

// Frozen reports whether the router is fault-frozen (making no grants).
func (r *Router) Frozen() bool { return r.frozen }

// Route returns the output port the installed routing algorithm picks for m
// at this router, or RouteUnreachable when no healthy path exists. Without
// an installed Routing it is dimension-ordered X-Y routing.
func (r *Router) Route(m *Message) PortID {
	if rt := r.net.routing; rt != nil {
		return rt.Route(r, m)
	}
	return r.XYPort(m)
}

// XYPort returns the dimension-ordered X-Y output port for m at this router:
// correct X first, then Y, then the destination node's attach port. It is
// the default routing function and the reference fault-aware routers deviate
// from only around dead links (the engine counts such deviations as
// reroutes). On a torus each dimension takes the shorter way around its ring
// (see DirToward), so it stays a pure function of (router, destination) and
// the route memo remains valid.
func (r *Router) XYPort(m *Message) PortID {
	dst := r.net.nodes[m.Dst]
	if dst.Router == r {
		return dst.Port
	}
	return r.DirToward(dst.Router.Coord)
}

// DirToward returns the dimension-ordered routing direction from r toward
// router coordinate dc: correct X first, then Y. On a mesh it is the plain
// X-Y comparison; on a torus each dimension takes the shorter way around its
// ring, with the tie at exactly half an even ring broken deterministically
// toward east/south. dc must differ from r.Coord.
func (r *Router) DirToward(dc Coord) PortID {
	cfg := &r.net.cfg
	if dc.X != r.Coord.X {
		if !cfg.Torus {
			if dc.X > r.Coord.X {
				return PortEast
			}
			return PortWest
		}
		fwd := dc.X - r.Coord.X // eastward hops, modulo the ring
		if fwd < 0 {
			fwd += cfg.Width
		}
		if 2*fwd <= cfg.Width {
			return PortEast
		}
		return PortWest
	}
	if dc.Y == r.Coord.Y {
		panic("noc: DirToward called with the router's own coordinate")
	}
	if !cfg.Torus {
		if dc.Y > r.Coord.Y {
			return PortSouth
		}
		return PortNorth
	}
	fwd := dc.Y - r.Coord.Y // southward hops, modulo the ring
	if fwd < 0 {
		fwd += cfg.Height
	}
	if 2*fwd <= cfg.Height {
		return PortSouth
	}
	return PortNorth
}

// String implements fmt.Stringer.
func (r *Router) String() string {
	return fmt.Sprintf("router#%d%s ports=%d", r.id, r.Coord, r.nPorts)
}
