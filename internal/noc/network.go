package noc

import (
	"fmt"
	"math/bits"

	"mlnoc/internal/stats"
)

// Config describes a mesh network.
type Config struct {
	// Width and Height are the mesh dimensions in routers.
	Width, Height int
	// VCs is the number of virtual channels (message classes) per port, at
	// most MaxVCs.
	VCs int
	// BufferCap is the per-VC input buffer capacity in messages.
	BufferCap int
	// MaxFlits bounds message size; the delivery wheel is sized from it.
	// Defaults to 32.
	MaxFlits int
	// Torus closes both dimensions into rings: every router gets wraparound
	// links (east of column Width-1 connects to column 0, south of row
	// Height-1 to row 0), turning the mesh into a 2D torus. Requires Width
	// and Height >= 3 so the two ring directions of a router are distinct.
	Torus bool
}

// MaxVCs bounds Config.VCs: a router's occupancy mask holds one bit per
// (port, VC) buffer in a uint64.
const MaxVCs = 64 / MaxPorts

func (c *Config) applyDefaults() {
	if c.VCs <= 0 {
		c.VCs = 1
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 4
	}
	if c.MaxFlits <= 0 {
		c.MaxFlits = 32
	}
}

// Stats aggregates network-level measurements. Latency is measured from
// injection into the source router to delivery at the destination node.
type Stats struct {
	Injected  int64
	Delivered int64
	// Latency is generation-to-delivery latency (includes source queueing).
	Latency stats.Accumulator
	// NetLatency is network-injection-to-delivery latency (excludes source
	// queueing); the difference to Latency is time spent waiting to enter
	// the network.
	NetLatency stats.Accumulator
	// HopLatency accumulates per-message hop counts at delivery.
	HopLatency stats.Accumulator
	// PerSource accumulates generation-to-delivery latency per source node,
	// for equality-of-service analysis (Section 5.2 of the paper).
	PerSource []stats.Accumulator
}

// SourceMeanLatencies returns the mean latency per source node with at least
// one delivered message.
func (s *Stats) SourceMeanLatencies() []float64 {
	var out []float64
	for i := range s.PerSource {
		if s.PerSource[i].Count() > 0 {
			out = append(out, s.PerSource[i].Mean())
		}
	}
	return out
}

// FairnessIndex returns Jain's fairness index over the per-source mean
// latencies: 1.0 means every source observes the same average latency.
func (s *Stats) FairnessIndex() float64 {
	return stats.JainIndex(s.SourceMeanLatencies())
}

type delivery struct {
	msg    *Message
	router *Router // destination router for a hop, nil for ejection
	port   PortID
	vc     int
	node   *Node // ejection target, nil for a hop
}

// Network is a mesh NoC simulation. Create one with New, attach nodes, set a
// policy, inject traffic via the nodes, and call Step once per cycle.
type Network struct {
	cfg     Config
	routers []*Router
	nodes   []*Node
	policy  Policy
	matcher Matcher // non-nil when policy implements Matcher
	grantOb GrantObserver
	routing Routing // nil means built-in X-Y routing

	// fault layer (see faultstate.go); zero-cost while faulty is false.
	faulty        bool
	fstats        FaultStats
	onUnreachable func(now int64, r *Router, m *Message)

	observers []Observer      // engine instrumentation (see observe.go)
	arbObs    []ArbObserver   // observers that also watch whole arbitrations
	faultObs  []FaultObserver // observers that also watch fault events

	cycle int64

	wheel   [][]delivery // delivery wheel indexed by cycle % len(wheel)
	pending int          // messages scheduled but not yet delivered

	// pendingInj counts messages queued at nodes that have not yet entered
	// the network, maintained incrementally by Node.Inject/dequeue so the
	// Drain/Quiescent check is O(1) instead of O(nodes) per cycle.
	pendingInj int

	inflightBySrc []int // outstanding messages per source node

	// in-flight age tracking for reward functions
	inflightCount int64
	inflightBase  int64 // sum of InjectCycle over in-flight messages

	// delivery window for the accumulated-latency reward
	windowLatencySum int64
	windowDelivered  int64

	// link utilization of the most recently completed cycle. busyOutputs is
	// maintained incrementally: grants increment it, and busyRelease (a wheel
	// parallel to the delivery wheel) schedules the decrement for the cycle
	// each output port frees up.
	busyOutputs  int
	busyRelease  []int
	totalOutputs int
	lastUtil     float64

	stats Stats

	// OnCycle, if non-nil, runs at the end of every Step (after arbitration
	// and delivery). The RL trainer uses it to run one training batch per
	// cycle.
	OnCycle func(n *Network)

	// reqScratch backs the matcher request list, reused across routers.
	reqScratch []Request

	// arbCtx/matchCtx are the per-cycle contexts handed to policies. They
	// live on the Network so the interface call does not force a heap
	// allocation every Step.
	arbCtx   ArbContext
	matchCtx MatchContext

	// Active-set stepping (see activeset.go). actR bit r is set iff router r
	// has occ != 0; actN bit i is set iff node i has a pending injection;
	// evictDirty bit r is set iff router r's buffer heads need re-probing for
	// unreachable verdicts.
	actR       []uint64
	actN       []uint64
	evictDirty []uint64
	actRCount  int

	// shardMinActive is the per-shard activity threshold below which a
	// sharded cycle skips the fork/join and steps sequentially instead;
	// shardForks counts the cycles that did fork (white-box test hook).
	shardMinActive int
	shardForks     int64

	// routeMemo caches the X-Y output port per (router, destination node),
	// indexed router.id*len(nodes)+dst. X-Y routing is a pure function of
	// that pair, so buffered messages never need their route recomputed.
	// Only consulted while no Routing is installed; rebuilt when the node
	// count changes. On big topologies the table outgrows the cache and a
	// lookup costs more than the X-Y arithmetic it memoizes — routeDirect
	// then bypasses it (see routeMemoMaxEntries).
	routeMemo   []PortID
	routeDirect bool

	// msgFree recycles delivered/evicted pooled messages (AllocMessage).
	msgFree []*Message

	// arbitration engine (see shard.go): plan is the sequential scan's
	// reused plan; shards > 1 scans into plans in parallel.
	plan        routerPlan
	shards      int
	shardBounds []int           // router range of shard i is [bounds[i], bounds[i+1])
	shardWake   []chan struct{} // one wake channel per worker goroutine
	shardDone   chan struct{}   // workers signal scan completion here
	plans       []routerPlan    // per-router scan output, indexed by router ID
}

// New creates an empty W x H mesh with no nodes attached. Use AttachNode (or
// a topology helper) to add endpoints, then SetPolicy.
func New(cfg Config) *Network {
	cfg.applyDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.Torus && (cfg.Width < 3 || cfg.Height < 3) {
		panic("noc: torus dimensions must be at least 3x3")
	}
	if cfg.VCs > MaxVCs {
		panic(fmt.Sprintf("noc: %d VCs exceed MaxVCs (%d)", cfg.VCs, MaxVCs))
	}
	n := &Network{
		cfg:            cfg,
		wheel:          make([][]delivery, cfg.MaxFlits+2),
		busyRelease:    make([]int, cfg.MaxFlits+2),
		shardMinActive: defaultShardMinActive,
	}
	n.routers = make([]*Router, cfg.Width*cfg.Height)
	words := (len(n.routers) + 63) / 64
	n.actR = make([]uint64, words)
	n.evictDirty = make([]uint64, words)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			id := y*cfg.Width + x
			r := &Router{
				id: id, Coord: Coord{X: x, Y: y}, net: n,
				actWord: id >> 6, actMask: 1 << (uint(id) & 63),
			}
			for p := range r.inGrantedAt {
				r.inGrantedAt[p] = -1
			}
			n.routers[id] = r
		}
	}
	// Wire mesh links and allocate direction-port buffers. On a torus the
	// neighbor coordinates wrap, so every router has all four direction
	// ports; the east<->west and north<->south pairing of Opposite holds on
	// wraparound links exactly as on interior ones.
	for _, r := range n.routers {
		link := func(p PortID, nx, ny int) {
			if cfg.Torus {
				nx = (nx + cfg.Width) % cfg.Width
				ny = (ny + cfg.Height) % cfg.Height
			} else if nx < 0 || ny < 0 || nx >= cfg.Width || ny >= cfg.Height {
				return
			}
			r.peerRouter[p] = n.routers[ny*cfg.Width+nx]
			n.allocPortBuffers(r, p)
		}
		link(PortNorth, r.Coord.X, r.Coord.Y-1)
		link(PortSouth, r.Coord.X, r.Coord.Y+1)
		link(PortWest, r.Coord.X-1, r.Coord.Y)
		link(PortEast, r.Coord.X+1, r.Coord.Y)
	}
	return n
}

func (n *Network) allocPortBuffers(r *Router, p PortID) {
	if r.in[p] != nil {
		return
	}
	bufs := make([]*Buffer, n.cfg.VCs)
	for vc := range bufs {
		bufs[vc] = &Buffer{cap: n.cfg.BufferCap, lastArr: -1,
			owner: r, bit: uint8(int(p)*n.cfg.VCs + vc)}
	}
	r.in[p] = bufs
	r.nPorts++
	n.totalOutputs++
}

// AttachNode attaches a new endpoint to the router at (x, y) on the given
// port. Attaching to a direction port is only allowed when that port has no
// mesh neighbor (an edge port), which is how the paper's CPU clusters hang
// off the GPU mesh.
func (n *Network) AttachNode(x, y int, port PortID, kind DstType, label string) *Node {
	r := n.RouterAt(x, y)
	if r.peerRouter[port] != nil {
		panic(fmt.Sprintf("noc: port %s of %s already linked to a neighbor", port, r))
	}
	if r.peerNode[port] != nil {
		panic(fmt.Sprintf("noc: port %s of %s already has a node", port, r))
	}
	node := &Node{
		ID:     NodeID(len(n.nodes)),
		Kind:   kind,
		Label:  label,
		Router: r,
		Port:   port,
		net:    n,
	}
	r.peerNode[port] = node
	n.allocPortBuffers(r, port)
	n.nodes = append(n.nodes, node)
	n.inflightBySrc = append(n.inflightBySrc, 0)
	if want := (len(n.nodes) + 63) / 64; len(n.actN) < want {
		n.actN = append(n.actN, 0)
	}
	return node
}

// SetPolicy installs the arbitration policy. If the policy also implements
// Matcher, whole-router matching is used instead of per-output selection.
func (n *Network) SetPolicy(p Policy) {
	n.policy = p
	n.matcher, _ = p.(Matcher)
	n.grantOb, _ = p.(GrantObserver)
}

// Policy returns the installed arbitration policy.
func (n *Network) Policy() Policy { return n.policy }

// SetRouting installs a routing algorithm, replacing built-in X-Y routing
// (pass nil to restore it). Installing a Routing marks the network faulty so
// unreachable verdicts are honored; with all links healthy, the reference
// implementations route identically to X-Y.
func (n *Network) SetRouting(rt Routing) {
	n.routing = rt
	if rt != nil {
		n.faulty = true
	}
	// The new routing may reach different verdicts on every buffered head.
	n.markAllEvictDirty()
}

// Routing returns the installed routing algorithm, or nil when the built-in
// X-Y routing is active.
func (n *Network) Routing() Routing { return n.routing }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Torus reports whether the network's dimensions wrap around (2D torus).
func (n *Network) Torus() bool { return n.cfg.Torus }

// Distance returns the minimal hop distance between two router coordinates
// under the network's topology: Manhattan distance on a mesh, per-dimension
// ring distance on a torus.
func (n *Network) Distance(a, b Coord) int {
	if !n.cfg.Torus {
		return a.Manhattan(b)
	}
	return ringDist(a.X, b.X, n.cfg.Width) + ringDist(a.Y, b.Y, n.cfg.Height)
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// RouterAt returns the router at mesh coordinate (x, y).
func (n *Network) RouterAt(x, y int) *Router {
	if x < 0 || y < 0 || x >= n.cfg.Width || y >= n.cfg.Height {
		panic(fmt.Sprintf("noc: router (%d,%d) out of range", x, y))
	}
	return n.routers[y*n.cfg.Width+x]
}

// Routers returns all routers in row-major order.
func (n *Network) Routers() []*Router { return n.routers }

// Nodes returns all attached nodes in attachment order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Stats returns the accumulated network statistics.
func (n *Network) Stats() *Stats { return &n.stats }

// ResetStats clears latency and counter statistics (typically after warmup).
// In-flight bookkeeping is preserved.
func (n *Network) ResetStats() {
	n.stats = Stats{}
	n.windowLatencySum = 0
	n.windowDelivered = 0
}

// InFlight returns the number of messages currently inside the network.
func (n *Network) InFlight() int64 { return n.inflightCount }

// OutstandingFrom returns the number of in-flight messages injected by the
// given source node (Table 2 "In-flight messages" feature).
func (n *Network) OutstandingFrom(src NodeID) int { return n.inflightBySrc[src] }

// AvgInFlightAge returns the mean age of all in-flight messages at the
// current cycle, or 0 when the network is empty.
func (n *Network) AvgInFlightAge() float64 {
	if n.inflightCount == 0 {
		return 0
	}
	return float64(n.cycle*n.inflightCount-n.inflightBase) / float64(n.inflightCount)
}

// TakeDeliveryWindow returns and resets the (latency sum, count) of messages
// delivered since the previous call. The accumulated-latency reward function
// samples this every period.
func (n *Network) TakeDeliveryWindow() (sum int64, count int64) {
	sum, count = n.windowLatencySum, n.windowDelivered
	n.windowLatencySum, n.windowDelivered = 0, 0
	return sum, count
}

// LinkUtilization returns the fraction of connected output ports that were
// transferring a message during the most recently completed cycle (Section
// 6.3 "link utilization" reward).
func (n *Network) LinkUtilization() float64 { return n.lastUtil }

// AllocMessage returns a zeroed Message, reusing one the engine recycled
// after delivery or eviction when possible. Messages from this pool are
// returned to it as soon as they are delivered (after the destination node's
// Sink and the observers ran) — callers and sinks must not retain the
// pointer past that point. Traffic generators and protocol layers use this
// to make steady-state injection allocation-free.
func (n *Network) AllocMessage() *Message {
	if k := len(n.msgFree); k > 0 {
		m := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		*m = Message{pooled: true}
		return m
	}
	return &Message{pooled: true}
}

// recycleMessage returns a pooled message to the freelist. Messages built
// with plain &Message{} literals are left alone: the engine cannot know who
// still references them.
func (n *Network) recycleMessage(m *Message) {
	if m.pooled {
		n.msgFree = append(n.msgFree, m)
	}
}

// routeMemoUnset marks an uncomputed routeMemo entry. It must differ from
// every real PortID and from RouteUnreachable.
const routeMemoUnset PortID = -2

// routeMemoMaxEntries caps the X-Y route memo: past this size (512 KiB of
// PortIDs — a 16x16 cores-on-every-router mesh) the table no longer fits the
// cache, and a random-access lookup costs more than the few compares of
// DirToward it memoizes. Bigger topologies compute X-Y routes directly; the
// result is the same either way, only the lookup cost changes.
const routeMemoMaxEntries = 64 * 1024

// ensureRouteMemo sizes the X-Y route memo for the current router and node
// counts, invalidating it when nodes were attached since the last build.
func (n *Network) ensureRouteMemo() {
	want := len(n.routers) * len(n.nodes)
	if n.routeDirect = want > routeMemoMaxEntries; n.routeDirect {
		n.routeMemo = nil
		return
	}
	if len(n.routeMemo) == want {
		return
	}
	n.routeMemo = make([]PortID, want)
	for i := range n.routeMemo {
		n.routeMemo[i] = routeMemoUnset
	}
}

// xyRouteMemo returns XYPort(m) at r through the (router, destination) memo,
// or directly when the topology is past the memo size cap. Callers must have
// called ensureRouteMemo and must only use it while no Routing override is
// installed.
func (n *Network) xyRouteMemo(r *Router, m *Message) PortID {
	if n.routeDirect {
		return r.XYPort(m)
	}
	idx := r.id*len(n.nodes) + int(m.Dst)
	if out := n.routeMemo[idx]; out != routeMemoUnset {
		return out
	}
	out := r.XYPort(m)
	n.routeMemo[idx] = out
	return out
}

// Step advances the simulation by one cycle: deliveries scheduled for this
// cycle land, nodes inject, every router arbitrates its free output ports,
// and OnCycle runs.
func (n *Network) Step() {
	if n.policy == nil {
		panic("noc: Step called with no policy installed")
	}
	n.cycle++
	n.deliver()
	n.inject()
	n.arbitrate()
	n.countUtilization()
	if n.faulty {
		n.fstats.DowntimeCycles += n.fstats.LinksDown
	}
	if n.OnCycle != nil {
		n.OnCycle(n)
	}
}

// Run advances the simulation by cycles steps.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain steps the simulation until every injected message has been delivered
// and all node injection queues are empty, or maxCycles additional cycles
// elapse. It reports whether the network fully drained.
func (n *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.Quiescent() {
			return true
		}
		n.Step()
	}
	return n.Quiescent()
}

// Quiescent reports whether no messages are in flight and no node has pending
// injections. It is O(1): the pending-injection total is maintained
// incrementally as messages enter and leave the node queues.
func (n *Network) Quiescent() bool {
	return n.inflightCount == 0 && n.pending == 0 && n.pendingInj == 0
}

// PendingInjections returns the total number of messages queued at nodes that
// have not yet entered the network.
func (n *Network) PendingInjections() int { return n.pendingInj }

func (n *Network) schedule(delay int64, d delivery) {
	if delay <= 0 {
		panic("noc: delivery delay must be positive")
	}
	if delay >= int64(len(n.wheel)) {
		panic(fmt.Sprintf(
			"noc: delivery delay %d does not fit the %d-slot wheel (MaxFlits=%d; message %s has %d flits)",
			delay, len(n.wheel), n.cfg.MaxFlits, d.msg, d.msg.SizeFlits))
	}
	slot := (n.cycle + delay) % int64(len(n.wheel))
	n.wheel[slot] = append(n.wheel[slot], d)
	n.pending++
}

func (n *Network) deliver() {
	slot := n.cycle % int64(len(n.wheel))
	ds := n.wheel[slot]
	if len(ds) == 0 {
		return
	}
	n.wheel[slot] = ds[:0]
	n.pending -= len(ds)
	for _, d := range ds {
		if d.router != nil {
			buf := d.router.in[d.port][d.vc]
			buf.reserved--
			buf.push(n.cycle, d.msg)
			continue
		}
		// Ejection at destination node.
		m := d.msg
		lat := n.cycle - m.InjectCycle
		n.stats.Delivered++
		genLat := float64(n.cycle - m.GenCycle)
		n.stats.Latency.Add(genLat)
		n.stats.NetLatency.Add(float64(lat))
		n.stats.HopLatency.Add(float64(m.HopCount))
		for int(m.Src) >= len(n.stats.PerSource) {
			n.stats.PerSource = append(n.stats.PerSource, stats.Accumulator{})
		}
		n.stats.PerSource[m.Src].Add(genLat)
		n.windowLatencySum += lat
		n.windowDelivered++
		n.inflightCount--
		n.inflightBase -= m.InjectCycle
		n.inflightBySrc[m.Src]--
		if d.node.Sink != nil {
			d.node.Sink(n.cycle, m)
		}
		if len(n.observers) > 0 {
			n.observeDeliver(d.node, m)
		}
		n.recycleMessage(m)
	}
}

func (n *Network) inject() {
	if n.pendingInj == 0 {
		return // no node holds a queued message; nothing can inject
	}
	// Visit only nodes with a pending injection, in ascending node ID. The
	// per-word snapshot is safe: injectFrom never sets a node-activity bit
	// (it only dequeues), so no active node can be missed mid-scan.
	for wi, word := range n.actN {
		if word == 0 {
			continue
		}
		base := wi << 6
		for ; word != 0; word &= word - 1 {
			n.injectFrom(n.nodes[base+bits.TrailingZeros64(word)])
		}
	}
}

// injectFrom moves the head of node's injection queue into its attach buffer
// if the attach link is up and the buffer has space. The caller guarantees
// the queue is non-empty.
func (n *Network) injectFrom(node *Node) {
	if n.faulty && node.Router.linkDown[node.Port] {
		return // the node's attach link is down; injections wait
	}
	m := node.injectQ[node.injectHead]
	if int(m.Class) >= n.cfg.VCs {
		panic(fmt.Sprintf("noc: %s has class %d but network has %d VCs",
			m, m.Class, n.cfg.VCs))
	}
	buf := node.Router.in[node.Port][m.Class]
	if !buf.Free() {
		return
	}
	node.dequeue()

	dst := n.nodes[m.Dst]
	m.InjectCycle = n.cycle
	m.Distance = n.Distance(node.Router.Coord, dst.Router.Coord)
	m.DstKind = dst.Kind
	m.HopCount = 0
	buf.push(n.cycle, m)

	n.stats.Injected++
	n.inflightCount++
	n.inflightBase += n.cycle
	n.inflightBySrc[m.Src]++
	if len(n.observers) > 0 {
		n.observeInject(node, m)
	}
}

func (n *Network) applyGrant(r *Router, out PortID, c Candidate) {
	buf := r.in[c.Port][c.VC]
	m := buf.pop()
	if m != c.Msg {
		panic("noc: granted candidate is no longer at its buffer head")
	}
	r.outBusyUntil[out] = n.cycle + int64(m.SizeFlits)
	r.inGrantedAt[c.Port] = n.cycle
	if n.faulty && out != r.XYPort(m) {
		n.fstats.Reroutes++
	}
	// The output stays busy for cycles [now, now+SizeFlits); schedule the
	// matching busy-count decrement for the cycle it frees up.
	n.busyOutputs++
	n.busyRelease[(n.cycle+int64(m.SizeFlits))%int64(len(n.busyRelease))]++
	if len(n.observers) > 0 {
		n.observeGrant(r, out, c)
	}

	if next := r.peerRouter[out]; next != nil {
		m.HopCount++
		inPort := out.Opposite()
		next.in[inPort][c.VC].reserved++
		n.schedule(int64(m.SizeFlits), delivery{
			msg: m, router: next, port: inPort, vc: c.VC,
		})
		return
	}
	node := r.peerNode[out]
	if node == nil {
		panic(fmt.Sprintf("noc: grant to unconnected output %s of %s", out, r))
	}
	if m.Dst != node.ID {
		panic(fmt.Sprintf("noc: %s misrouted to %s", m, node))
	}
	n.schedule(int64(m.SizeFlits), delivery{msg: m, node: node})
}

func (n *Network) selectAndGrant(ctx *ArbContext, r *Router, out PortID, cands []Candidate) {
	choice := 0
	if len(cands) > 1 {
		choice = n.policy.Select(ctx, cands)
		if choice < 0 || choice >= len(cands) {
			panic(fmt.Sprintf("noc: policy %s returned choice %d of %d candidates",
				n.policy.Name(), choice, len(cands)))
		}
	}
	if n.grantOb != nil {
		n.grantOb.ObserveGrant(ctx, cands, choice)
	}
	if len(n.arbObs) > 0 && len(cands) > 1 {
		n.observeArb(r, out, cands, choice)
	}
	n.applyGrant(r, out, cands[choice])
}

// matchAndApply runs the installed matcher over r's requests and applies the
// grants, enforcing the one-grant-per-input-port invariant.
func (n *Network) matchAndApply(r *Router, reqs []Request) {
	n.reqScratch = reqs[:0]
	if len(reqs) == 0 {
		return
	}
	mctx := &n.matchCtx
	mctx.Router = r
	grants := n.matcher.Match(mctx, reqs)
	if len(grants) != len(reqs) {
		panic(fmt.Sprintf("noc: matcher %s returned %d grants for %d requests",
			n.policy.Name(), len(grants), len(reqs)))
	}
	var usedIn [MaxPorts]bool
	for i, g := range grants {
		if len(n.arbObs) > 0 && (len(reqs[i].Cands) > 1 || g < 0) {
			n.observeArb(r, reqs[i].Out, reqs[i].Cands, g)
		}
		if g < 0 {
			continue
		}
		if g >= len(reqs[i].Cands) {
			panic(fmt.Sprintf("noc: matcher %s grant %d out of range", n.policy.Name(), g))
		}
		c := reqs[i].Cands[g]
		if usedIn[c.Port] {
			panic(fmt.Sprintf("noc: matcher %s granted input port %s twice", n.policy.Name(), c.Port))
		}
		usedIn[c.Port] = true
		n.applyGrant(r, reqs[i].Out, c)
	}
}

func (n *Network) countUtilization() {
	// Retire ports whose serialization ended this cycle (outBusyUntil ==
	// cycle): they were busy through cycle-1 but are idle now. Grants made
	// this cycle always release at cycle+SizeFlits >= cycle+1, so the slot
	// only holds releases that are due.
	slot := n.cycle % int64(len(n.busyRelease))
	n.busyOutputs -= n.busyRelease[slot]
	n.busyRelease[slot] = 0
	if n.totalOutputs == 0 {
		n.lastUtil = 0
		return
	}
	n.lastUtil = float64(n.busyOutputs) / float64(n.totalOutputs)
}
