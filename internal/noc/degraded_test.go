package noc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
)

// TestShardInvarianceDegraded pins the engine against the full-scan reference
// through the deepest fault stack in the repo: fault.TableRouting degrades to
// up*/down* after mid-run link kills, messages carry RouteBits phase state,
// an outage repairs, and a router freezes — on a mesh and a torus. Any
// divergence in Route coverage, lazy eviction or sharded scans shows up as a
// trace or stats mismatch. Checked sequentially and with the parallel scans
// forked every cycle.
func TestShardInvarianceDegraded(t *testing.T) {
	for _, torus := range []bool{false, true} {
		name := "mesh"
		if torus {
			name = "torus"
		}
		t.Run(name, func(t *testing.T) {
			run := func(shards int) (*noc.Network, []string, fault.Stats) {
				net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2, BufferCap: 4, Torus: torus})
				net.SetPolicy(arb.NewGlobalAge())
				var plan fault.Plan
				plan.KillLink(net.RouterAt(1, 1).ID(), noc.PortEast, 100)
				plan.KillLink(net.RouterAt(2, 2).ID(), noc.PortSouth, 100)
				plan.Outage(net.RouterAt(0, 1).ID(), noc.PortEast, 150, 400)
				plan.FreezeRouter(net.RouterAt(3, 0).ID(), 200, 350)
				inj, err := (fault.Spec{Plan: plan}).Equip(net)
				if err != nil {
					t.Fatalf("Equip: %v", err)
				}
				step := noc.RefStep
				if shards > 0 {
					step = (*noc.Network).Step
					net.SetShards(shards)
					noc.SetShardMinActive(net, 0)
					defer net.SetShards(1)
				}
				var trace []string
				for _, c := range cores {
					c.Sink = func(now int64, m *noc.Message) {
						trace = append(trace, fmt.Sprintf("%d:%d:%d", now, m.ID, m.Dst))
					}
				}
				rng := rand.New(rand.NewSource(31))
				for i := 0; i < 800; i++ {
					if src, dst := cores[rng.Intn(len(cores))], cores[rng.Intn(len(cores))]; src != dst {
						src.Inject(&noc.Message{ID: uint64(i + 1), Dst: dst.ID,
							Class: noc.Class(rng.Intn(2)), SizeFlits: 1 + rng.Intn(4)})
					}
					step(net)
				}
				for i := 0; i < 100_000 && !net.Quiescent(); i++ {
					step(net)
				}
				return net, trace, inj.Stats()
			}
			baseNet, baseTrace, baseStats := run(0)
			if baseStats.Reroutes == 0 || baseStats.Requeued == 0 {
				t.Fatalf("fault scenario is vacuous: %+v", baseStats)
			}
			if len(baseTrace) == 0 {
				t.Fatal("no deliveries recorded")
			}
			for _, k := range []int{1, 2, 4} {
				net, trace, stats := run(k)
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
