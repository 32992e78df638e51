package noc_test

import (
	"math/rand"
	"testing"
	"time"

	"mlnoc/internal/arb"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// benchMesh builds a loaded 8x8 mesh under uniform-random traffic with the
// global-age arbiter — the steady-state Step workload of the Fig. 5 sweeps.
func benchMesh() (*noc.Network, *traffic.Injector) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.3, rand.New(rand.NewSource(17)))
	in.Classes = 3
	return net, in
}

// TestNetworkStepZeroAllocs pins the tentpole contract: once warm (scratch
// grown, message freelist populated, delivery wheel sized), a simulation cycle
// performs no heap allocations. The rate is kept below saturation so injection
// queues and the in-flight population are stable.
func TestNetworkStepZeroAllocs(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.1, rand.New(rand.NewSource(17)))
	in.Classes = 3
	for i := 0; i < 4000; i++ {
		in.Tick()
		net.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		in.Tick()
		net.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick+Step allocates %v objects per cycle, want 0", allocs)
	}
}

func BenchmarkHotNetworkStep(b *testing.B) {
	net, in := benchMesh()
	for i := 0; i < 3000; i++ {
		in.Tick()
		net.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
	}
}

// benchLargeMesh measures steady-state stepping of one large mesh with the
// given router-shard count, reporting delivered messages/sec/core — the
// headline scaling metric. K>1 only pays off with spare cores; on a
// single-CPU runner the fork/join barrier is pure overhead and the custom
// metric records that honestly.
// The rate must stay below the topology's saturation point (the mesh
// bisection bound shrinks as 2/size for uniform traffic) or the injection
// queues and message freelist grow — and allocate — without bound.
func benchLargeMesh(b *testing.B, size, shards int, rate float64) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 8})
	net.SetPolicy(arb.NewGlobalAge())
	net.SetShards(shards)
	defer net.SetShards(1)
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, rand.New(rand.NewSource(17)))
	in.Classes = 3
	// Long warmup: the in-flight population on a near-saturation 32x32 mesh
	// takes on the order of a thousand cycles to stabilize, and the message
	// freelist keeps growing (allocating) until it does.
	for i := 0; i < 1500; i++ {
		in.Tick()
		net.Step()
	}
	before := net.Stats().Delivered
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if delivered := net.Stats().Delivered - before; elapsed > 0 {
		b.ReportMetric(float64(delivered)/elapsed/float64(len(cores)), "msgs/s/core")
	}
}

func BenchmarkHotLargeMeshStep16x16K1(b *testing.B) { benchLargeMesh(b, 16, 1, 0.1) }
func BenchmarkHotLargeMeshStep16x16K4(b *testing.B) { benchLargeMesh(b, 16, 4, 0.1) }
func BenchmarkHotLargeMeshStep32x32K1(b *testing.B) { benchLargeMesh(b, 32, 1, 0.05) }
func BenchmarkHotLargeMeshStep32x32K4(b *testing.B) { benchLargeMesh(b, 32, 4, 0.05) }

// TestSparseStepZeroAllocs pins the zero-alloc contract in the active-set
// engine's target regime: a big mesh at a sparse injection rate, where almost
// every router and node is skipped each cycle.
func TestSparseStepZeroAllocs(t *testing.T) {
	net, cores := noc.BuildMesh32x32()
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.005, rand.New(rand.NewSource(17)))
	in.Classes = 3
	for i := 0; i < 3000; i++ {
		in.Tick()
		net.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		in.Tick()
		net.Step()
	})
	if allocs != 0 {
		t.Fatalf("sparse steady-state Tick+Step allocates %v objects per cycle, want 0", allocs)
	}
}

// benchLargeMeshSparse measures stepping at a sparse injection rate — the
// active-set engine's target regime, where per-cycle cost should track the
// in-flight population rather than the topology size. The mean active-router
// count is reported so the sparseness of the regime is visible next to the
// ns/op.
func benchLargeMeshSparse(b *testing.B, size, shards int, rate float64) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 8})
	net.SetPolicy(arb.NewGlobalAge())
	net.SetShards(shards)
	defer net.SetShards(1)
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, rand.New(rand.NewSource(17)))
	in.Classes = 3
	// The sparse regime converges slowly: at rate*N^2 injections per cycle
	// the freelist and per-node queues take thousands of cycles to reach
	// steady state on the biggest meshes, and until they do Step allocates.
	warmup := 1500
	if size >= 64 {
		warmup = 15000
	}
	for i := 0; i < warmup; i++ {
		in.Tick()
		net.Step()
	}
	before := net.Stats().Delivered
	var activeSum int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
		activeSum += int64(net.ActiveRouters())
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if delivered := net.Stats().Delivered - before; elapsed > 0 {
		b.ReportMetric(float64(delivered)/elapsed/float64(len(cores)), "msgs/s/core")
	}
	b.ReportMetric(float64(activeSum)/float64(b.N), "active-routers")
}

func BenchmarkHotLargeMeshStepSparse16x16(b *testing.B)   { benchLargeMeshSparse(b, 16, 1, 0.02) }
func BenchmarkHotLargeMeshStepSparse32x32(b *testing.B)   { benchLargeMeshSparse(b, 32, 1, 0.005) }
func BenchmarkHotLargeMeshStepSparse32x32K4(b *testing.B) { benchLargeMeshSparse(b, 32, 4, 0.005) }
func BenchmarkHotLargeMeshStepSparse64x64(b *testing.B)   { benchLargeMeshSparse(b, 64, 1, 0.002) }

// benchLargeMeshSparseFaulted is the degraded-mesh counterpart: two interior
// links are dead for the whole run and the fault-aware table routing steers
// around them. The engine visits only occupied routers, spends one Route call
// per buffered head per cycle, and re-probes a router with no free output for
// unreachable heads only after a head change.
func benchLargeMeshSparseFaulted(b *testing.B, size, shards int, rate float64) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 8})
	net.SetPolicy(arb.NewGlobalAge())
	mid := size / 2
	net.SetLinkDown(net.RouterAt(mid, mid).ID(), noc.PortEast, true)
	net.SetLinkDown(net.RouterAt(mid, mid+1).ID(), noc.PortSouth, true)
	net.SetRouting(fault.NewTableRouting(net))
	net.SetShards(shards)
	defer net.SetShards(1)
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, rand.New(rand.NewSource(17)))
	in.Classes = 3
	for i := 0; i < 1500; i++ {
		in.Tick()
		net.Step()
	}
	before := net.Stats().Delivered
	var activeSum int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
		activeSum += int64(net.ActiveRouters())
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if delivered := net.Stats().Delivered - before; elapsed > 0 {
		b.ReportMetric(float64(delivered)/elapsed/float64(len(cores)), "msgs/s/core")
	}
	b.ReportMetric(float64(activeSum)/float64(b.N), "active-routers")
}

func BenchmarkHotLargeMeshStepSparse32x32Faulted(b *testing.B) {
	benchLargeMeshSparseFaulted(b, 32, 1, 0.005)
}
