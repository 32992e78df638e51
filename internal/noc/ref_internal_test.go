package noc

import "fmt"

// refStep is the reference engine Step is pinned against: the naive
// full-scan, per-output-gather arbitration. Each cycle it visits every node
// and every router, sweeps every non-frozen router of a faulty network for
// unreachable heads, and builds each free output's candidate list with its own
// pass over all input buffers, calling Router.Route once per head per output.
// It shares the production deliver, inject, grant and evict primitives, so a
// divergence from Step isolates the engine's sequencing: active-set visits,
// one Route call per head, lazy eviction probes and sharded scans.
func refStep(n *Network) {
	if n.policy == nil {
		panic("noc: Step called with no policy installed")
	}
	n.cycle++
	n.deliver()
	for _, node := range n.nodes {
		if node.PendingInjections() > 0 {
			n.injectFrom(node)
		}
	}
	n.arbCtx = ArbContext{Net: n, Cycle: n.cycle}
	n.matchCtx = MatchContext{Net: n, Cycle: n.cycle}
	for _, r := range n.routers {
		if r.frozen {
			continue
		}
		if n.faulty {
			n.evictUnreachable(r)
		}
		var reqs []Request
		for out := PortID(0); out < MaxPorts; out++ {
			if !r.HasPort(out) || r.linkDown[out] || r.OutputBusy(out, n.cycle) {
				continue
			}
			cands := refGather(n, r, out)
			if len(cands) == 0 {
				continue
			}
			if n.matcher != nil {
				reqs = append(reqs, Request{Out: out, Cands: cands})
				continue
			}
			n.arbCtx.Router, n.arbCtx.Out = r, out
			n.selectAndGrant(&n.arbCtx, r, out, cands)
		}
		if n.matcher != nil {
			n.matchAndApply(r, reqs)
		}
	}
	n.countUtilization()
	if n.faulty {
		n.fstats.DowntimeCycles += n.fstats.LinksDown
	}
	if n.OnCycle != nil {
		n.OnCycle(n)
	}
}

// refGather collects the candidates for output out of r: every buffered head
// routed to out whose input port has not forwarded this cycle and whose
// downstream buffer (for a hop) has space, in (port, VC) ascending order.
func refGather(n *Network, r *Router, out PortID) []Candidate {
	var cands []Candidate
	for p := PortID(0); p < MaxPorts; p++ {
		if r.inGrantedAt[p] == n.cycle {
			continue
		}
		for vc, buf := range r.in[p] {
			m := buf.Head()
			if m == nil || r.Route(m) != out {
				continue
			}
			if next := r.peerRouter[out]; next != nil && !next.in[out.Opposite()][vc].Free() {
				continue
			}
			cands = append(cands, Candidate{Port: p, VC: vc, Msg: m})
		}
	}
	return cands
}

// refDrain is Drain stepping with refStep.
func refDrain(n *Network, maxCycles int64) bool {
	for i := int64(0); i < maxCycles && !n.Quiescent(); i++ {
		refStep(n)
	}
	return n.Quiescent()
}

// diffEngines returns a description of the first difference between two runs'
// delivery traces, Stats and FaultStats, or "" when they are bit-identical.
func diffEngines(base *Network, baseLog []string, got *Network, gotLog []string) string {
	for i := 0; i < len(baseLog) && i < len(gotLog); i++ {
		if gotLog[i] != baseLog[i] {
			return fmt.Sprintf("delivery %d diverges: got %q, reference %q", i, gotLog[i], baseLog[i])
		}
	}
	if len(gotLog) != len(baseLog) {
		return fmt.Sprintf("delivery counts diverge: got %d, reference %d", len(gotLog), len(baseLog))
	}
	bs, gs := base.Stats(), got.Stats()
	if bs.Injected != gs.Injected || bs.Delivered != gs.Delivered || bs.Latency != gs.Latency ||
		bs.NetLatency != gs.NetLatency || bs.HopLatency != gs.HopLatency {
		return fmt.Sprintf("stats diverge: got inj=%d del=%d avg=%v, reference inj=%d del=%d avg=%v",
			gs.Injected, gs.Delivered, gs.Latency.Mean(), bs.Injected, bs.Delivered, bs.Latency.Mean())
	}
	if len(bs.PerSource) != len(gs.PerSource) {
		return fmt.Sprintf("per-source stats diverge: got %d sources, reference %d", len(gs.PerSource), len(bs.PerSource))
	}
	for i := range bs.PerSource {
		if bs.PerSource[i] != gs.PerSource[i] {
			return fmt.Sprintf("per-source stats of node %d diverge", i)
		}
	}
	if base.FaultStats() != got.FaultStats() {
		return fmt.Sprintf("fault stats diverge: got %+v, reference %+v", got.FaultStats(), base.FaultStats())
	}
	if base.InFlight() != got.InFlight() || base.Cycle() != got.Cycle() {
		return fmt.Sprintf("end state diverges: got inflight=%d cycle=%d, reference inflight=%d cycle=%d",
			got.InFlight(), got.Cycle(), base.InFlight(), base.Cycle())
	}
	return ""
}
