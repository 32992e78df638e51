// Command nocsim runs a synthetic-traffic mesh simulation with a chosen
// arbitration policy and reports latency statistics. It is the quickest way
// to explore the simulator:
//
//	nocsim -size 8 -rate 0.13 -policy global-age -cycles 20000
//	nocsim -size 4 -policy rl-inspired -pattern hotspot
//	nocsim -size 16 -topology torus -rate 0.05 -shards 4
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mlnoc/internal/arb"
	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/prof"
	"mlnoc/internal/trace"
	"mlnoc/internal/traffic"
)

func main() {
	size := flag.Int("size", 8, "mesh edge size (routers per side)")
	topology := flag.String("topology", "mesh", "topology: mesh (open) or torus (wraparound rings)")
	shards := flag.Int("shards", 1,
		"router shards stepped in parallel (bit-identical to sequential)")
	rate := flag.Float64("rate", 0.13, "injection rate (messages/node/cycle)")
	policy := flag.String("policy", "global-age",
		"arbitration policy: random, round-robin, islip, fifo, probdist, global-age, rl-inspired")
	pattern := flag.String("pattern", "uniform",
		"traffic pattern: uniform, transpose, bitcomp, hotspot, tornado")
	cycles := flag.Int64("cycles", 10000, "measured cycles")
	warmup := flag.Int64("warmup", 2000, "warmup cycles (stats discarded)")
	vcs := flag.Int("vcs", 3, fmt.Sprintf("virtual channels per port (1..%d)", noc.MaxVCs))
	bufcap := flag.Int("bufcap", 8, "buffer capacity per VC (messages)")
	seed := flag.Int64("seed", 1, "random seed")
	nnPath := flag.String("nn", "", "run a saved agent network (gob) as the policy")
	metricsOut := flag.String("metrics-out", "",
		"write per-router/per-port obs counters (JSON) to this file")
	watchdog := flag.Int64("watchdog", 0,
		"flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	faults := flag.Float64("faults", 0,
		"fraction of mesh links to kill a third into the measured run (0..1, connectivity-preserving)")
	faultSeed := flag.Int64("fault-seed", 0, "fault scenario seed (0 = use -seed)")
	traceOn := flag.Bool("trace", false,
		"attach the per-message lifecycle tracer and print a latency breakdown")
	traceOut := flag.String("trace-out", "",
		"write the trace as Chrome/Perfetto JSON to this file (implies -trace)")
	traceCSV := flag.String("trace-csv", "",
		"write the trace as compact CSV to this file (implies -trace)")
	traceSample := flag.Uint64("trace-sample", 1, "trace only every Nth message (1 = all)")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	profCfg := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	log := cliutil.SetupLogger("nocsim", &logCfg)
	log = log.With("corr_id", fmt.Sprintf("nocsim-%d-%d", os.Getpid(), *seed))
	profStop, profErr := prof.Start(*profCfg)
	if profErr != nil {
		cliutil.Fatal("nocsim", "%v", profErr)
	}
	defer profStop()
	var check cliutil.Check
	check.Positive("-size", int64(*size))
	check.OneOf("-topology", *topology, "mesh", "torus")
	if *topology == "torus" {
		check.AtLeast("-size", int64(*size), 3)
	}
	check.Positive("-shards", int64(*shards))
	check.Unit("-rate", *rate)
	check.NonNegative("-cycles", *cycles)
	check.NonNegative("-warmup", *warmup)
	check.Positive("-vcs", int64(*vcs))
	check.AtMost("-vcs", int64(*vcs), noc.MaxVCs)
	check.Positive("-bufcap", int64(*bufcap))
	check.NonNegative("-watchdog", *watchdog)
	check.Unit("-faults", *faults)
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.Exit("nocsim")
	cliutil.PrintSeed(os.Stdout, *seed)

	net, cores := noc.BuildMeshCores(noc.Config{
		Width: *size, Height: *size, VCs: *vcs, BufferCap: *bufcap,
		Torus: *topology == "torus",
	})
	net.SetShards(*shards)
	var p noc.Policy
	var err error
	if *nnPath != "" {
		p, err = loadAgent(*nnPath, *vcs, *seed)
	} else {
		p, err = makePolicy(*policy, *size, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	net.SetPolicy(p)
	if agent, ok := p.(*core.Agent); ok {
		net.OnCycle = agent.OnCycle
	}

	pat, err := makePattern(*pattern, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var inj *fault.Injector
	if *faults > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		spec := fault.Spec{
			KillFraction: *faults,
			KillAt:       *warmup + *cycles/3,
			Seed:         fseed,
		}
		if inj, err = spec.Equip(net); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	in := traffic.NewInjector(cores, pat, *rate, rand.New(rand.NewSource(*seed+1)))
	in.Classes = *vcs

	var suite *obs.Suite
	if *metricsOut != "" || *watchdog > 0 {
		cfg := obs.SuiteConfig{SampleEvery: 1}
		if *watchdog > 0 {
			cfg.Watchdog = &obs.WatchdogConfig{
				MaxHeadAge:     *watchdog,
				LivelockWindow: *watchdog,
				OnAlert: func(a obs.Alert) {
					log.Warn("watchdog alert", "kind", string(a.Kind), "alert", a.String())
				},
			}
		}
		suite = obs.Attach(net, cfg)
	}
	var tr *trace.Tracer
	if *traceOn || *traceOut != "" || *traceCSV != "" {
		tr = trace.Attach(net, trace.Config{SampleEvery: *traceSample})
	}

	res := traffic.Run(net, in, *warmup, *cycles)
	st := net.Stats()
	fmt.Printf("policy=%s pattern=%s topology=%s size=%dx%d rate=%.3f shards=%d\n",
		p.Name(), pat.Name(), *topology, *size, *size, *rate, net.Shards())
	fmt.Printf("  delivered %d msgs in %d cycles (%.3f msgs/node/cycle accepted)\n",
		res.Delivered, res.Cycles, float64(res.Delivered)/float64(res.Cycles)/float64(len(cores)))
	fmt.Printf("  latency: avg %.1f, max %.0f (generation to delivery)\n",
		res.AvgLatency, res.MaxLatency)
	fmt.Printf("  in-network latency: avg %.1f, avg hops %.2f\n",
		st.NetLatency.Mean(), st.HopLatency.Mean())
	if inj != nil {
		fs := inj.Stats()
		fmt.Printf("  faults: %d links killed, %d downtime cycles, %d requeued, %d reroutes, %d unreachable\n",
			fs.LinkKills, fs.DowntimeCycles, fs.Requeued, fs.Reroutes, fs.Unreachable)
	}
	if suite != nil {
		reportObs(suite, *metricsOut, *seed)
	}
	if tr != nil {
		reportTrace(tr, *traceOut, *traceCSV)
	}
}

// reportTrace prints the latency breakdown of the traced run and writes the
// requested export files. The trace spans the entire run, warmup included.
func reportTrace(tr *trace.Tracer, jsonOut, csvOut string) {
	fmt.Printf("  trace: %d events retained (%d recorded, %d evicted), sampling every %d msgs\n",
		tr.Len(), tr.Recorded(), tr.Dropped(), tr.SampleEvery())
	fmt.Print(trace.Analyze(tr).Render())
	write := func(path string, export func(f *os.File) error, hint string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := export(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  (trace written to %s%s)\n", path, hint)
	}
	write(jsonOut, func(f *os.File) error { return trace.WriteChromeTrace(f, tr) },
		"; load in https://ui.perfetto.dev or chrome://tracing")
	write(csvOut, func(f *os.File) error { return trace.WriteCSV(f, tr) }, "")
}

// reportObs prints the observability summary and writes the JSON snapshot.
func reportObs(suite *obs.Suite, metricsOut string, seed int64) {
	snap := suite.Snapshot()
	snap.Seed = seed
	fmt.Printf("  obs: %d grants, %d blocked port-cycles, max head age %d\n",
		snap.TotalGrants(), snap.TotalBlockedCycles(), snap.MaxHeadAge())
	if snap.Delivered > 0 {
		fmt.Printf("  obs: latency p50 %.0f, p95 %.0f, p99 %.0f (since attach, warmup included)\n",
			snap.LatencyP50, snap.LatencyP95, snap.LatencyP99)
	}
	if w := suite.Watchdog; w != nil && w.Tripped() {
		fmt.Printf("  watchdog: %d alerts\n%s", len(w.Alerts()), w.Summary())
	}
	if metricsOut == "" {
		return
	}
	f, err := os.Create(metricsOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  (obs metrics written to %s)\n", metricsOut)
}

func makePolicy(name string, size int, seed int64) (noc.Policy, error) {
	switch name {
	case "random":
		return arb.NewRandom(rand.New(rand.NewSource(seed))), nil
	case "round-robin", "rr":
		return arb.NewRoundRobin(), nil
	case "islip":
		return arb.NewISLIP(2), nil
	case "fifo":
		return arb.NewFIFO(), nil
	case "probdist":
		return arb.NewProbDist(rand.New(rand.NewSource(seed))), nil
	case "global-age":
		return arb.NewGlobalAge(), nil
	case "rl-inspired":
		if size >= 8 {
			return core.NewRLInspiredMesh8x8(), nil
		}
		return core.NewRLInspiredMesh4x4(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

func makePattern(name string, size int) (traffic.Pattern, error) {
	switch name {
	case "uniform":
		return traffic.UniformRandom{}, nil
	case "transpose":
		return traffic.Transpose{}, nil
	case "bitcomp":
		return traffic.BitComplement{}, nil
	case "hotspot":
		return traffic.Hotspot{Spots: []int{size/2*size + size/2}, Fraction: 0.3}, nil
	case "tornado":
		return traffic.Tornado{Width: size}, nil
	}
	return nil, fmt.Errorf("unknown pattern %q", name)
}

// loadAgent wraps a saved network as an evaluation-only policy.
func loadAgent(path string, vcs int, seed int64) (noc.Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		return nil, err
	}
	spec := core.MeshSpec(vcs)
	if net.InputSize() != spec.InputSize() {
		return nil, fmt.Errorf("network input %d does not match %d-VC mesh spec (%d)",
			net.InputSize(), vcs, spec.InputSize())
	}
	return core.NewAgentWithNet(spec, net, seed), nil
}
