package noc

// RouteUnreachable is the explicit unreachable-destination verdict a Routing
// implementation returns when no admissible healthy path to the destination
// exists from the queried router. The engine evicts a head message whose
// route is RouteUnreachable from its buffer, counts it in FaultStats, and
// reports it through the unreachable handler — messages are never silently
// blackholed.
const RouteUnreachable PortID = -1

// Routing is a pluggable per-hop routing algorithm. Route returns the output
// port taking m one hop closer to its destination from router r, the
// destination node's attach port once m sits at its destination router, or
// RouteUnreachable when no healthy path exists.
//
// Route must be a pure verdict: its result depends only on the queried
// router, the message and the network's fault state (topology, link health,
// frozen routers, tables rebuilt from fault events), never on the cycle or on
// how often it was called. It may write only to m, and those writes must be
// idempotent (calling Route twice in a row leaves m as calling it once). The
// engine relies on this in two ways: the arbitration scan routes each
// buffered head once per cycle, possibly from a parallel shard (see
// SetShards), and a router with no free output re-probes its heads for
// unreachable verdicts only after a fault transition or a head change (see
// the evict-dirty tracking in activeset.go). Implementations that maintain
// tables (see internal/fault) rebuild them from fault events, not inside
// Route.
//
// When no Routing is installed the engine uses built-in dimension-ordered
// X-Y routing (XYRouting's behaviour) without an interface call.
type Routing interface {
	Name() string
	Route(r *Router, m *Message) PortID
}

// XYRouting is dimension-ordered X-Y routing, the default algorithm: correct
// X first, then Y, then deliver to the destination node's attach port. It is
// oblivious to link faults: a message whose X-Y port is a dead link waits
// (and is flagged by the obs watchdog as fault-blackholed) rather than
// rerouting.
type XYRouting struct{}

// Name implements Routing.
func (XYRouting) Name() string { return "xy" }

// Route implements Routing.
func (XYRouting) Route(r *Router, m *Message) PortID { return r.XYPort(m) }
