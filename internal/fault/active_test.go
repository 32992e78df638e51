package fault

import (
	"testing"

	"mlnoc/internal/noc"
)

// TestActiveSetInvarianceDegraded pins the active-set bookkeeping through the
// deepest fault stack in the repo: table routing degrades to up*/down* after
// mid-run link kills, messages carry RouteBits phase state, outages requeue
// and repair, a router freezes, and lazy eviction pops unreachable heads.
// Arbitration visits only the routers in the active set, so after every
// cycle the set must hold exactly the routers with a buffered message — a
// router missing from it would silently stall its traffic. The run must also
// conserve messages and drain, sequentially and with two shards.
func TestActiveSetInvarianceDegraded(t *testing.T) {
	topologies := map[string]func() (*noc.Network, []*noc.Node){
		"mesh":  func() (*noc.Network, []*noc.Node) { return mesh(4, 4, 2) },
		"torus": func() (*noc.Network, []*noc.Node) { return torus(4, 4, 2) },
	}
	for tname, build := range topologies {
		t.Run(tname, func(t *testing.T) {
			for _, k := range []int{1, 2} {
				net, cores := build()
				var plan Plan
				plan.KillLink(net.RouterAt(1, 1).ID(), noc.PortEast, 100)
				plan.KillLink(net.RouterAt(2, 2).ID(), noc.PortSouth, 100)
				plan.Outage(net.RouterAt(0, 1).ID(), noc.PortEast, 150, 400)
				plan.FreezeRouter(net.RouterAt(3, 0).ID(), 200, 350)
				inj, err := (Spec{Plan: plan}).Equip(net)
				if err != nil {
					t.Fatalf("Equip: %v", err)
				}
				net.SetShards(k)
				checked := 0
				net.AddOnCycle(func(net *noc.Network) {
					busy := 0
					for _, r := range net.Routers() {
						if r.QueuedMessages() > 0 {
							busy++
						}
					}
					if busy != net.ActiveRouters() {
						t.Fatalf("K=%d cycle %d: %d routers hold messages but the active set counts %d",
							k, net.Cycle(), busy, net.ActiveRouters())
					}
					if busy > 0 {
						checked++
					}
				})
				drive(net, cores, 31, 800)
				net.SetShards(1)
				s, fs := net.Stats(), inj.Stats()
				if fs.Reroutes == 0 || fs.Requeued == 0 {
					t.Fatalf("K=%d fault scenario is vacuous: %+v", k, fs)
				}
				if checked == 0 {
					t.Fatalf("K=%d no cycle had a busy router", k)
				}
				if s.Injected != s.Delivered+fs.Unreachable+net.InFlight() {
					t.Fatalf("K=%d conservation broken: injected=%d delivered=%d unreachable=%d inflight=%d",
						k, s.Injected, s.Delivered, fs.Unreachable, net.InFlight())
				}
				if !net.Quiescent() {
					t.Fatalf("K=%d network did not drain: %d in flight", k, net.InFlight())
				}
			}
		})
	}
}
