package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mlnoc/internal/apu"
	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
	"mlnoc/internal/traffic"
)

// apuAgentGob is the frozen 504->42->42 APU agent used by apu-nn. How it
// was produced is recorded in NOTES.md.
//
//go:embed fixtures/apu-agent.gob
var apuAgentGob []byte

// outcome is what one pass over one instance produced.
type outcome struct {
	// summary renders the result the public entry point returns; every
	// pass over the same instance, plain or traced, must produce the same.
	summary string
	cycles  int64   // simulated cycles in the measured phase
	latency float64 // mean message latency, cycles
	exec    float64 // APU average completion, or measured+drain cycles

	// Traced passes only.
	stats     string             // full simulated statistics, digested
	delivered int64              // messages delivered in the measured phase
	layer     map[string]float64 // per-instance layer counters (fault, traffic)
	failures  []string           // failed output checks, "name: detail"
}

func (o *outcome) fail(name, format string, args ...any) {
	o.failures = append(o.failures, name+": "+fmt.Sprintf(format, args...))
}

// runner executes passes over one workload's instances. plain drives the
// public entry point untraced and returns the cost of the set-up that had
// to precede the measured phase (zero when the entry point does its own)
// and of the measured phase. traced replicates the entry point from this
// package with timing wrappers around each module's calls, recording into
// rec; its simulated results must equal plain's.
type runner interface {
	plain(seed int64) (o outcome, prep, meas cost, err error)
	traced(seed int64, rec *recorder) (o outcome, meas cost, err error)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// instances is the number of distinct seeded instances a run cycles
	// through; simulated metrics average over them.
	instances int
	// setupReps is how often setup runs (and is timed) per run; zero means
	// once, untimed, for workloads whose set-up is per pass.
	setupReps int
	// setup loads the run's inputs and warms the process up.
	setup func(seed int64) (runner, error)
}

var workloads = []workload{
	{name: "apu-bfs", instances: 4, setupReps: 5, setup: setupAPUBFS},
	{name: "mesh32-faulted", instances: 3, setupReps: 0, setup: setupMesh32},
	{name: "train-mesh4", instances: 3, setupReps: 5, setup: setupTrain},
	{name: "apu-nn", instances: 3, setupReps: 5, setup: setupAPUNN},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instanceSeed derives the seed of instance i of a run seeded with seed.
func instanceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// f64 renders a float exactly, for summaries compared bit for bit.
func f64(x float64) string { return fmt.Sprintf("%x", math.Float64bits(x)) }

// conserve checks the engine's accounting identity over a network's whole
// life: injected (summed across ResetStats segments) equals delivered plus
// unreachable plus still in flight.
func conserve(o *outcome, net *noc.Network, injected, delivered int64) {
	unreach := net.FaultStats().Unreachable
	if injected != delivered+unreach+net.InFlight() {
		o.fail("conservation", "injected %d != delivered %d + unreachable %d + in flight %d",
			injected, delivered, unreach, net.InFlight())
	}
}

// ---- APU workloads (apu-bfs, apu-nn) ----

// Set-up warm-up instances run at this op scale.
const apuWarmupOpScale = 0.05

type apuRunner struct {
	model   *synfull.Model
	opScale float64
	// policy builds a fresh policy (a core arbiter or agent) for one pass.
	policy func(seed int64) noc.Policy
}

func setupAPUBFS(seed int64) (runner, error) {
	m, err := synfull.ByName("bfs")
	if err != nil {
		return nil, err
	}
	r := &apuRunner{model: m, opScale: 0.5,
		policy: func(int64) noc.Policy { return core.NewRLInspiredAPU() }}
	return r, r.warmUp(seed)
}

func setupAPUNN(seed int64) (runner, error) {
	m, err := synfull.ByName("bfs")
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(apuAgentGob))
	if err != nil {
		return nil, fmt.Errorf("load apu agent fixture: %w", err)
	}
	spec := core.APUSpec()
	if net.InputSize() != spec.InputSize() {
		return nil, fmt.Errorf("apu agent fixture has %d inputs, the APU spec %d",
			net.InputSize(), spec.InputSize())
	}
	r := &apuRunner{model: m, opScale: 0.1,
		policy: func(seed int64) noc.Policy { return core.NewAgentWithNet(spec, net, seed) }}
	return r, r.warmUp(seed)
}

// warmUp runs one short instance through the entry point so heap, caches
// and lazily built tables are in place before timing.
func (r *apuRunner) warmUp(seed int64) error {
	res := apu.RunWorkload(apu.Config{}, r.policy(seed), apu.Homogeneous(r.model),
		apu.RunnerConfig{OpScale: apuWarmupOpScale, Seed: seed})
	if !res.Finished {
		return fmt.Errorf("warm-up instance did not finish")
	}
	return nil
}

func apuSummary(completion [4]int64, cycles int64, finished bool, avgLat float64) string {
	return fmt.Sprintf("completion=%v cycles=%d finished=%v latency=%s",
		completion, cycles, finished, f64(avgLat))
}

func (r *apuRunner) plain(seed int64) (outcome, cost, cost, error) {
	pol := r.policy(seed)
	var res apu.ExecResult
	meas := measured(func() {
		res = apu.RunWorkload(apu.Config{}, pol, apu.Homogeneous(r.model),
			apu.RunnerConfig{OpScale: r.opScale, Seed: seed})
	})
	o := outcome{
		summary: apuSummary(res.Completion, res.Cycles, res.Finished, res.AvgLatency),
		cycles:  res.Cycles,
		latency: res.AvgLatency,
		exec:    res.Avg,
	}
	if !res.Finished {
		o.fail("quadrants", "completion %v", res.Completion)
	}
	return o, cost{}, meas, nil
}

// traced replicates apu.RunWorkload (NewSystem, policy and OnCycle hook,
// NewRunner, Runner.Run) with each Runner.Step timed as apu.step.
func (r *apuRunner) traced(seed int64, rec *recorder) (outcome, cost, error) {
	var o outcome
	pol := r.policy(seed)
	if ag, ok := pol.(*core.Agent); ok {
		ag.Infer = &timedInfer{net: ag.Net(), span: &rec.spans[spanNNForward]}
	}
	tp, ok := newTimedPolicy(pol, &rec.spans[spanCoreSelect])
	if !ok {
		return o, cost{}, fmt.Errorf("policy %s cannot be wrapped", pol.Name())
	}
	sw := startWatch()
	runCfg := apu.RunnerConfig{OpScale: r.opScale, Seed: seed}
	sys := apu.NewSystem(apu.Config{}, runCfg.Seed+1)
	sys.Net.SetPolicy(tp)
	if oc, ok := pol.(interface{ OnCycle(*noc.Network) }); ok {
		hook := oc.OnCycle
		if ag, ok := pol.(*core.Agent); ok && ag.Training {
			hook = timedHook(hook, &rec.spans[spanRLTrain])
		}
		sys.Net.OnCycle = hook
	}
	run := apu.NewRunner(sys, apu.Homogeneous(r.model), runCfg)
	net := sys.Net
	a0 := rec.allocs()
	for i := int64(0); i < run.Cfg.MaxCycles && !run.Done(); i++ {
		ts := time.Now()
		run.Step()
		rec.spans[spanAPUStep].since(ts)
		rec.sample(net)
	}
	finished := run.Done()
	drained := rec.drain(net, 10_000)
	rec.steadyAllocs += rec.allocs() - a0
	rec.steadyCycles += net.Cycle()
	meas := sw.stop()

	st := net.Stats()
	var avg, tail float64
	if finished {
		avg, tail = run.AvgExecTime(), run.TailExecTime()
	} else {
		o.fail("quadrants", "completion %v", run.Completion)
	}
	if !drained {
		o.fail("drain", "%d in flight, %d pending injections after drain",
			net.InFlight(), net.PendingInjections())
	}
	conserve(&o, net, st.Injected, st.Delivered)
	o.summary = apuSummary(run.Completion, net.Cycle(), finished, st.Latency.Mean())
	o.cycles = net.Cycle()
	o.latency = st.Latency.Mean()
	o.exec = avg
	o.delivered = st.Delivered
	o.stats = fmt.Sprintf("%s avg=%s tail=%s injected=%d delivered=%d netlat=%s hops=%s",
		o.summary, f64(avg), f64(tail), st.Injected, st.Delivered,
		f64(st.NetLatency.Mean()), f64(st.HopLatency.Mean()))
	return o, meas, nil
}

// ---- mesh32-faulted ----

// mesh32-faulted parameters: a 32x32 mesh under uniform random traffic at a
// fixed open-loop rate, with 5% of its links killed half-way through
// warm-up (the same scenario shape as nocsim -faults).
const (
	meshRate    = 0.005
	meshKill    = 0.05
	meshWarmup  = 2000
	meshKillAt  = 1000
	meshMeasure = 8000
	meshClasses = 3
)

type meshRunner struct{}

func setupMesh32(int64) (runner, error) { return meshRunner{}, nil }

// meshInstance is a constructed, faulted and warmed-up mesh32 instance.
type meshInstance struct {
	net *noc.Network
	in  *traffic.Injector
	inj *fault.Injector
	// warm-up totals, before traffic.Run's ResetStats
	injected, delivered int64
}

// build constructs the instance with policy installed and runs warm-up
// exactly as traffic.Run's warm-up loop does.
func (meshRunner) build(seed int64, policy noc.Policy) (*meshInstance, error) {
	net, cores := noc.BuildMesh32x32()
	net.SetPolicy(policy)
	spec := fault.Spec{KillFraction: meshKill, KillAt: meshKillAt, Seed: seed}
	inj, err := spec.Equip(net)
	if err != nil {
		return nil, fmt.Errorf("equip faults: %w", err)
	}
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, meshRate,
		rand.New(rand.NewSource(seed+1)))
	in.Classes = meshClasses
	for i := 0; i < meshWarmup; i++ {
		in.Tick()
		net.Step()
	}
	st := net.Stats()
	return &meshInstance{net: net, in: in, inj: inj,
		injected: st.Injected, delivered: st.Delivered}, nil
}

func meshSummary(r traffic.RunResult) string {
	return fmt.Sprintf("latency=%s max=%s delivered=%d injected=%d cycles=%d",
		f64(r.AvgLatency), f64(r.MaxLatency), r.Delivered, r.Injected, r.Cycles)
}

func (m meshRunner) plain(seed int64) (outcome, cost, cost, error) {
	sw := startWatch()
	mi, err := m.build(seed, arb.NewGlobalAge())
	if err != nil {
		return outcome{}, cost{}, cost{}, err
	}
	prep := sw.stop()
	var res traffic.RunResult
	meas := measured(func() { res = traffic.Run(mi.net, mi.in, 0, meshMeasure) })
	return outcome{
		summary: meshSummary(res),
		cycles:  res.Cycles - meshWarmup,
		latency: res.AvgLatency,
		exec:    float64(res.Cycles - meshWarmup),
	}, prep, meas, nil
}

// traced replicates traffic.Run's measured phase and drain with timed
// Injector.Tick and Network.Step calls; arb.select times the policy.
func (m meshRunner) traced(seed int64, rec *recorder) (outcome, cost, error) {
	var o outcome
	var warm span // the policy's calls during warm-up are not measured
	tp, ok := newTimedPolicy(arb.NewGlobalAge(), &warm)
	if !ok {
		return o, cost{}, fmt.Errorf("global-age policy cannot be wrapped")
	}
	mi, err := m.build(seed, tp)
	if err != nil {
		return o, cost{}, err
	}
	tp.span = &rec.spans[spanArbSelect]
	net, in := mi.net, mi.in

	sw := startWatch()
	net.ResetStats()
	pend := steadyGuard{}
	a0 := rec.allocs()
	var aMid uint64
	for i := int64(0); i < meshMeasure; i++ {
		ts := time.Now()
		in.Tick()
		rec.spans[spanTrafficTick].since(ts)
		rec.step(net)
		pend.observe(i, meshMeasure, net.PendingInjections())
		if i == meshMeasure/2-1 {
			aMid = rec.allocs()
		}
	}
	aEnd := rec.allocs()
	drained := rec.drain(net, 4*meshMeasure)
	meas := sw.stop()
	rec.steadyAllocs += aEnd - a0
	rec.steadyCycles += meshMeasure

	st := net.Stats()
	res := traffic.RunResult{AvgLatency: st.Latency.Mean(), MaxLatency: st.Latency.Max(),
		Delivered: st.Delivered, Injected: st.Injected, Cycles: net.Cycle()}
	if !drained {
		o.fail("drain", "%d in flight, %d pending injections after drain",
			net.InFlight(), net.PendingInjections())
	}
	conserve(&o, net, mi.injected+st.Injected, mi.delivered+st.Delivered)
	pend.check(&o, aMid-a0, aEnd-aMid, meshMeasure)
	fs := mi.inj.Stats()
	o.summary = meshSummary(res)
	o.cycles = res.Cycles - meshWarmup
	o.latency = res.AvgLatency
	o.exec = float64(res.Cycles - meshWarmup)
	o.delivered = st.Delivered
	o.layer = map[string]float64{
		"fault.reroutes":    float64(fs.Reroutes),
		"fault.requeued":    float64(fs.Requeued),
		"fault.unreachable": float64(fs.Unreachable),
		"traffic.generated": float64(in.Generated()),
	}
	o.stats = fmt.Sprintf("%s kills=%d reroutes=%d requeued=%d unreachable=%d generated=%d netlat=%s hops=%s",
		o.summary, fs.LinkKills, fs.Reroutes, fs.Requeued, fs.Unreachable, in.Generated(),
		f64(st.NetLatency.Mean()), f64(st.HopLatency.Mean()))
	return o, meas, nil
}

// steadyGuard checks that an open-loop measured phase is at steady state:
// the injection backlog does not grow from its midpoint to its end, and
// warm-up left no allocations behind. Single-cycle backlogs fluctuate, so
// each point is the mean over the quarter of the phase that ends there.
type steadyGuard struct {
	window   int64
	mid, end int64 // summed backlog over the quarters ending at mid and end
}

func (g *steadyGuard) observe(i, measure int64, pending int) {
	w := measure / 4
	g.window = w
	switch {
	case i >= measure/2-w && i < measure/2:
		g.mid += int64(pending)
	case i >= measure-w:
		g.end += int64(pending)
	}
}

// check records a "steady-state" failure on o when the backlog grew from
// the midpoint to the end by more than three messages or half its midpoint
// level, whichever is larger — a queue below saturation fluctuates by up
// to about two messages between quarters (train-mesh4's evaluation at 0.15
// swings between 0.8 and 3.1 with no trend), while a growing one keeps
// adding messages every cycle — or when the first half of the phase
// allocated more than twice as much per cycle as the second, plus one
// allocation per cycle. That slack admits the residual growth of buffer
// slices to new high-water marks, which decays slowly and stays below one
// allocation per cycle even on the 1024-router mesh; a warm-up that is too
// short leaves tens per cycle in the first half.
func (g *steadyGuard) check(o *outcome, allocsFirst, allocsSecond uint64, measure int64) {
	mid := float64(g.mid) / float64(g.window)
	end := float64(g.end) / float64(g.window)
	if end-mid > math.Max(3, mid/2) {
		o.fail("steady-state", "injection backlog grew from %.2f at mid-phase to %.2f at the end", mid, end)
	}
	half := float64(measure / 2)
	first, second := float64(allocsFirst)/half, float64(allocsSecond)/half
	if first > 2*second+1 {
		o.fail("steady-state", "%.3f allocs/cycle in the first half of the measured phase, %.3f in the second",
			first, second)
	}
}

// ---- train-mesh4 ----

// train-mesh4 parameters: trainarb's online DQL training on a 4x4 mesh and
// the frozen-NN evaluation that follows it, as trainarb -size 4 -cycles 8000
// -eval 4000 -evalrate 0.15 runs them. The evaluation rate is below the
// training rate of 0.23, at which the 4x4 single-buffer mesh saturates
// under a frozen agent and the injection backlog grows without bound.
const (
	trainCycles  = 8000
	trainEpoch   = 1000
	trainHidden  = 15
	trainEps     = 0.001
	evalWarmup   = 1000
	evalMeasure  = 4000
	meshTrainVCs = 3
	meshTrainBuf = 1
	meshTrainLd  = 0.23
	evalRate     = 0.15
)

type trainRunner struct{}

func trainConfig(seed int64, cycles int64) core.MeshTrainConfig {
	return core.MeshTrainConfig{
		Width: 4, Height: 4,
		Hidden:      trainHidden,
		Epochs:      int(cycles / trainEpoch),
		EpochCycles: trainEpoch,
		Reward:      rl.RewardGlobalAge,
		Seed:        seed,
		DQL:         rl.DQLConfig{Epsilon: trainEps},
	}
}

func setupTrain(seed int64) (runner, error) {
	// Warm-up: one epoch of training and a short evaluation.
	cfg := trainConfig(seed, trainEpoch)
	tr := core.TrainMesh(cfg)
	tr.Agent.Freeze()
	cfg.Rate = evalRate
	core.EvaluateMeshPolicy(cfg, tr.Agent, evalWarmup/4, evalMeasure/4)
	return trainRunner{}, nil
}

func trainSummary(curve []float64, decisions, steps int64, r traffic.RunResult) string {
	s := fmt.Sprintf("decisions=%d steps=%d eval=[%s] curve=", decisions, steps, meshSummary(r))
	for _, c := range curve {
		s += f64(c) + ","
	}
	return s
}

func (trainRunner) plain(seed int64) (outcome, cost, cost, error) {
	cfg := trainConfig(seed, trainCycles)
	var tr *core.TrainResult
	var decisions, steps int64
	var res traffic.RunResult
	meas := measured(func() {
		tr = core.TrainMesh(cfg)
		decisions, steps = tr.Agent.Decisions(), tr.Agent.DQL.Steps()
		tr.Agent.Freeze()
		cfg.Rate = evalRate
		res = core.EvaluateMeshPolicy(cfg, tr.Agent, evalWarmup, evalMeasure)
	})
	return outcome{
		summary: trainSummary(tr.Curve, decisions, steps, res),
		cycles:  trainCycles + res.Cycles,
		latency: res.AvgLatency,
		exec:    float64(res.Cycles - evalWarmup),
	}, cost{}, meas, nil
}

// traced replicates core.TrainMesh (with its harness defaults) and
// core.EvaluateMeshPolicy. The agent's Infer seam is set to its own float
// network, timed as nn.forward; Agent.OnCycle is timed as rl.train.
func (trainRunner) traced(seed int64, rec *recorder) (outcome, cost, error) {
	var o outcome
	cfg := trainConfig(seed, trainCycles)
	sw := startWatch()
	spec := core.NewStateSpec(
		[]noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
		meshTrainVCs, core.MeshFeatures, core.DefaultNorm())
	dql := cfg.DQL
	dql.BatchSize, dql.LR, dql.Gamma, dql.ReplayCap, dql.SyncEvery = 32, 0.05, 0.5, 16000, 2000
	agent := core.NewAgent(spec, core.AgentConfig{
		Hidden:         cfg.Hidden,
		DQL:            dql,
		Reward:         cfg.Reward,
		EpsStart:       0.5,
		EpsDecayCycles: trainCycles / 2,
		Seed:           seed,
	})
	agent.Infer = &timedInfer{net: agent.Net(), span: &rec.spans[spanNNForward]}
	tp, ok := newTimedPolicy(agent, &rec.spans[spanCoreSelect])
	if !ok {
		return o, cost{}, fmt.Errorf("agent cannot be wrapped")
	}
	newRun := func(rate float64) (*noc.Network, *traffic.Injector) {
		net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4,
			VCs: meshTrainVCs, BufferCap: meshTrainBuf})
		net.SetPolicy(tp)
		in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate,
			rand.New(rand.NewSource(seed+1)))
		in.Classes = meshTrainVCs
		return net, in
	}
	tick := func(in *traffic.Injector) {
		ts := time.Now()
		in.Tick()
		rec.spans[spanTrafficTick].since(ts)
	}

	net, in := newRun(meshTrainLd)
	net.OnCycle = timedHook(agent.OnCycle, &rec.spans[spanRLTrain])
	var curve []float64
	var injected, delivered int64
	for e := 0; e < cfg.Epochs; e++ {
		st := net.Stats()
		injected, delivered = injected+st.Injected, delivered+st.Delivered
		net.ResetStats()
		for i := int64(0); i < cfg.EpochCycles; i++ {
			tick(in)
			rec.step(net)
		}
		curve = append(curve, net.Stats().Latency.Mean())
	}
	st := net.Stats()
	conserve(&o, net, injected+st.Injected, delivered+st.Delivered)
	trainDelivered := delivered + st.Delivered
	decisions, steps := agent.Decisions(), agent.DQL.Steps()
	agent.Freeze()

	// EvaluateMeshPolicy: the frozen agent's OnCycle only tracks rewards.
	enet, ein := newRun(evalRate)
	enet.OnCycle = agent.OnCycle
	for i := 0; i < evalWarmup; i++ {
		tick(ein)
		rec.step(enet)
	}
	wst := enet.Stats()
	winj, wdel := wst.Injected, wst.Delivered
	enet.ResetStats()
	pend := steadyGuard{}
	a0 := rec.allocs()
	var aMid uint64
	for i := int64(0); i < evalMeasure; i++ {
		tick(ein)
		rec.step(enet)
		pend.observe(i, evalMeasure, enet.PendingInjections())
		if i == evalMeasure/2-1 {
			aMid = rec.allocs()
		}
	}
	aEnd := rec.allocs()
	drained := rec.drain(enet, 4*evalMeasure)
	meas := sw.stop()
	rec.steadyAllocs += aEnd - a0
	rec.steadyCycles += evalMeasure

	est := enet.Stats()
	res := traffic.RunResult{AvgLatency: est.Latency.Mean(), MaxLatency: est.Latency.Max(),
		Delivered: est.Delivered, Injected: est.Injected, Cycles: enet.Cycle()}
	if !drained {
		o.fail("drain", "%d in flight, %d pending injections after drain",
			enet.InFlight(), enet.PendingInjections())
	}
	conserve(&o, enet, winj+est.Injected, wdel+est.Delivered)
	pend.check(&o, aMid-a0, aEnd-aMid, evalMeasure)
	o.summary = trainSummary(curve, decisions, steps, res)
	o.cycles = trainCycles + res.Cycles
	o.latency = res.AvgLatency
	o.exec = float64(res.Cycles - evalWarmup)
	o.delivered = trainDelivered + wdel + est.Delivered
	o.layer = map[string]float64{"traffic.generated": float64(in.Generated() + ein.Generated())}
	o.stats = fmt.Sprintf("%s generated=%d/%d netlat=%s", o.summary,
		in.Generated(), ein.Generated(), f64(est.NetLatency.Mean()))
	return o, meas, nil
}
