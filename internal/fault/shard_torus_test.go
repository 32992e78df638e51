package fault

import (
	"math/rand"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
)

// torus builds a cores-on-every-router torus with the global-age policy, the
// torus counterpart of the mesh helper.
func torus(w, h, vcs int) (*noc.Network, []*noc.Node) {
	net, cores := noc.BuildTorusCores(noc.Config{Width: w, Height: h, VCs: vcs, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	return net, cores
}

// forkMinActive mirrors the sharded engine's default per-shard activity
// threshold (noc.defaultShardMinActive): a cycle forks its parallel scans only
// when at least forkMinActive*K routers are active.
const forkMinActive = 64

// TestShardInvarianceDegraded pins the sharded engine against the sequential
// one on a faulted run that goes through the full fault-aware stack: table
// routing degrades to up*/down* after mid-run link kills, messages carry
// RouteBits phase state, an outage repairs, and a router freezes — on both a
// mesh and a torus. The networks are large and loaded enough that the
// parallel scans fork at the default threshold; any divergence between the
// parallel scans' Route calls and the sequential ones shows up as a
// delivery-trace or stats mismatch.
func TestShardInvarianceDegraded(t *testing.T) {
	topologies := map[string]func() (*noc.Network, []*noc.Node){
		"mesh":  func() (*noc.Network, []*noc.Node) { return mesh(24, 24, 2) },
		"torus": func() (*noc.Network, []*noc.Node) { return torus(24, 24, 2) },
	}
	for tname, build := range topologies {
		t.Run(tname, func(t *testing.T) {
			// run returns the network, its delivery trace, its fault stats
			// and the number of cycles whose arbitration had enough active
			// routers to fork K parallel scans. Only deliveries and
			// injections run between the end of one Step and the next
			// arbitration, and both only add messages, so ActiveRouters()
			// after a Step is a lower bound on the next cycle's count.
			run := func(shards int) (*noc.Network, []string, Stats, int) {
				net, cores := build()
				var plan Plan
				plan.KillLink(net.RouterAt(5, 5).ID(), noc.PortEast, 100)
				plan.KillLink(net.RouterAt(10, 10).ID(), noc.PortSouth, 100)
				plan.Outage(net.RouterAt(3, 8).ID(), noc.PortEast, 150, 400)
				plan.FreezeRouter(net.RouterAt(12, 2).ID(), 200, 350)
				inj, err := (Spec{Plan: plan}).Equip(net)
				if err != nil {
					t.Fatalf("Equip: %v", err)
				}
				net.SetShards(shards)
				defer net.SetShards(1)
				trace := traceDeliveries(cores)
				rng := rand.New(rand.NewSource(31))
				id, forkable := uint64(0), 0
				step := func() {
					net.Step()
					if net.ActiveRouters() >= forkMinActive*shards {
						forkable++
					}
				}
				for i := 0; i < 450; i++ {
					for j := 0; j < 24; j++ {
						src, dst := cores[rng.Intn(len(cores))], cores[rng.Intn(len(cores))]
						if src != dst {
							id++
							src.Inject(&noc.Message{ID: id, Dst: dst.ID,
								Class: noc.Class(rng.Intn(2)), SizeFlits: 1 + rng.Intn(4)})
						}
					}
					step()
				}
				for i := 0; i < 100_000 && !net.Quiescent(); i++ {
					step()
				}
				return net, *trace, inj.Stats(), forkable
			}
			baseNet, baseTrace, baseStats, _ := run(1)
			if baseStats.Reroutes == 0 || baseStats.Requeued == 0 {
				t.Fatalf("fault scenario is vacuous: %+v", baseStats)
			}
			if len(baseTrace) == 0 {
				t.Fatal("no deliveries recorded")
			}
			for _, k := range []int{2, 4} {
				net, trace, stats, forkable := run(k)
				if forkable == 0 {
					t.Fatalf("K=%d never reached %d active routers; the parallel scans never forked", k, forkMinActive*k)
				}
				if len(trace) != len(baseTrace) {
					t.Fatalf("K=%d delivery counts diverge: %d vs %d", k, len(trace), len(baseTrace))
				}
				for i := range baseTrace {
					if trace[i] != baseTrace[i] {
						t.Fatalf("K=%d delivery %d diverges: %q vs %q", k, i, trace[i], baseTrace[i])
					}
				}
				if stats != baseStats {
					t.Fatalf("K=%d fault stats diverge: %+v vs %+v", k, stats, baseStats)
				}
				if s, bs := net.Stats(), baseNet.Stats(); s.Injected != bs.Injected ||
					s.Delivered != bs.Delivered || s.Latency != bs.Latency || s.NetLatency != bs.NetLatency {
					t.Fatalf("K=%d network stats diverge", k)
				}
			}
		})
	}
}

// TestTorusFaultConservation cuts one torus router off entirely (all four
// ring links killed) and checks the conservation identity
// Injected == Delivered + Unreachable + InFlight: traffic to the dead router
// gets explicit unreachable verdicts, everything else routes around the hole
// over the wraparound links, and nothing is silently lost.
func TestTorusFaultConservation(t *testing.T) {
	net, cores := torus(5, 5, 2)
	dead := net.RouterAt(2, 2)
	var plan Plan
	for _, p := range []noc.PortID{noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast} {
		plan.KillLink(dead.ID(), p, 100)
	}
	inj, err := (Spec{Plan: plan}).Equip(net)
	if err != nil {
		t.Fatalf("Equip: %v", err)
	}
	drive(net, cores, 53, 1200)
	s := net.Stats()
	fs := inj.Stats()
	if s.Injected != s.Delivered+fs.Unreachable+net.InFlight() {
		t.Fatalf("conservation broken: injected=%d delivered=%d unreachable=%d inflight=%d",
			s.Injected, s.Delivered, fs.Unreachable, net.InFlight())
	}
	if fs.Unreachable == 0 {
		t.Fatal("no unreachable verdicts despite a fully cut-off router")
	}
	if fs.Reroutes == 0 {
		t.Fatal("no reroutes counted; torus healthy paths never detoured")
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d messages still in flight after drain; up*/down* wedged on the torus", net.InFlight())
	}
}

// TestWestFirstRejectsTorus pins the explicit capability check: the west-first
// turn model's deadlock-freedom proof needs an open mesh, so construction on a
// torus must fail with an error instead of wedging at runtime.
func TestWestFirstRejectsTorus(t *testing.T) {
	net, _ := torus(4, 4, 1)
	if _, err := NewWestFirstRouting(net); err == nil {
		t.Fatal("NewWestFirstRouting accepted a torus")
	}
	mesh, _ := mesh(4, 4, 1)
	if _, err := NewWestFirstRouting(mesh); err != nil {
		t.Fatalf("NewWestFirstRouting rejected an open mesh: %v", err)
	}
}
