package main

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
)

// Spans the traced pass records, each around calls into one module's
// public functions. Spans nest: arb.select, core.select and rl.train run
// inside noc.step, nn.forward inside core.select; noc.step itself runs
// inside apu.step on the APU workloads, where it cannot be timed from
// outside and the CPU profile gives its share instead.
const (
	spanNocStep = iota
	spanTrafficTick
	spanArbSelect
	spanCoreSelect
	spanNNForward
	spanRLTrain
	spanAPUStep
	numSpans
)

var spanNames = [numSpans]string{"noc.step", "traffic.tick", "arb.select",
	"core.select", "nn.forward", "rl.train", "apu.step"}

// cost is the host time a phase took: wall-clock time and the process's CPU
// time (user and system, over all threads, so garbage collection counts).
// On a shared virtual machine the hypervisor steals CPU from the guest for
// stretches of seconds; stolen time inflates wall-clock time but is not
// charged as CPU time, so the gated timings use CPU time. peakRSS is the
// largest resident set size seen during a measured phase, in bytes.
type cost struct {
	wall, cpu time.Duration
	peakRSS   int64
}

// stopwatch measures a cost from its start.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) stop() cost {
	return cost{wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
}

// plainLabels mark the CPU-profile samples of plain passes' measured
// phases, the only samples the layer table counts.
var plainLabels = pprof.WithLabels(context.Background(), pprof.Labels("pass", "plain"))

// measured runs f as a plain pass's measured phase: timed, polled for its
// peak resident set size, and labelled for the CPU profile.
func measured(f func()) cost {
	var c cost
	c.peakRSS = peakRSSDuring(func() {
		pprof.SetGoroutineLabels(plainLabels)
		defer pprof.SetGoroutineLabels(context.Background())
		sw := startWatch()
		f()
		m := sw.stop()
		c.wall, c.cpu = m.wall, m.cpu
	})
	return c
}

// rssPollEvery is how often peakRSSDuring samples the resident set size;
// heaps grow over tens to hundreds of milliseconds, so 10 ms catches the
// peak while waking the poller rarely enough to cost nothing measurable.
const rssPollEvery = 10 * time.Millisecond

// peakRSSDuring runs f while a goroutine samples the process's resident set
// size, and returns the largest sample (0 where /proc/self/statm is
// unavailable). The peak of one phase, unlike the process's lifetime
// maximum, can be compared across passes.
func peakRSSDuring(f func()) int64 {
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		f()
		return 0
	}
	defer statm.Close()
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var buf [128]byte
		page := int64(os.Getpagesize())
		max := int64(0)
		sample := func() {
			n, _ := statm.ReadAt(buf[:], 0)
			if r := statmResident(buf[:n]) * page; r > max {
				max = r
			}
		}
		t := time.NewTicker(rssPollEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-stop:
				sample()
				peak <- max
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	return <-peak
}

// statmResident parses the resident page count, the second field of
// /proc/self/statm, without allocating.
func statmResident(b []byte) int64 {
	field, v := 0, int64(0)
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			if field == 1 {
				v = v*10 + int64(c-'0')
			}
		case c == ' ':
			field++
		}
		if field > 1 {
			break
		}
	}
	return v
}

// processCPU is the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span accumulates the timings of one kind of call.
type span struct {
	hist durHist
}

func (s *span) since(t0 time.Time) {
	s.hist.add(int64(time.Since(t0)))
}

// recorder collects one traced pass: call spans, per-cycle network samples
// and allocation counts. Everything is preallocated, so recording adds no
// allocation of its own to the counts it reports.
type recorder struct {
	spans [numSpans]span

	cycles      int64 // cycles sampled
	idleCycles  int64 // cycles after which the network was quiescent
	activeSum   int64
	inflightSum int64
	utilSum     float64
	pendingMax  int

	// Allocation count over the steady phase (measured phase of an
	// open-loop run, whole run of a closed-loop one).
	steadyCycles int64
	steadyAllocs uint64

	mem runtime.MemStats
}

func newRecorder() *recorder { return &recorder{} }

// allocs returns the process's cumulative heap allocation count. It uses
// ReadMemStats, which flushes the per-P allocation caches, because
// runtime/metrics counts small allocations only when a cached span is
// swapped out and can be thousands of objects behind.
func (r *recorder) allocs() uint64 {
	runtime.ReadMemStats(&r.mem)
	return r.mem.Mallocs
}

// sample records the network state at the end of one cycle.
func (r *recorder) sample(net *noc.Network) {
	r.cycles++
	if net.Quiescent() {
		r.idleCycles++
	}
	r.activeSum += int64(net.ActiveRouters())
	r.inflightSum += net.InFlight()
	r.utilSum += net.LinkUtilization()
	if p := net.PendingInjections(); p > r.pendingMax {
		r.pendingMax = p
	}
}

// step runs one timed network cycle and samples it.
func (r *recorder) step(net *noc.Network) {
	t0 := time.Now()
	net.Step()
	r.spans[spanNocStep].since(t0)
	r.sample(net)
}

// drain replicates noc.Network.Drain with timed, sampled steps.
func (r *recorder) drain(net *noc.Network, maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if net.Quiescent() {
			return true
		}
		r.step(net)
	}
	return net.Quiescent()
}

// merge adds another pass's spans and samples into r.
func (r *recorder) merge(o *recorder) {
	for i := range r.spans {
		r.spans[i].hist.merge(&o.spans[i].hist)
	}
	r.cycles += o.cycles
	r.idleCycles += o.idleCycles
	r.activeSum += o.activeSum
	r.inflightSum += o.inflightSum
	r.utilSum += o.utilSum
	if o.pendingMax > r.pendingMax {
		r.pendingMax = o.pendingMax
	}
	r.steadyCycles += o.steadyCycles
	r.steadyAllocs += o.steadyAllocs
}

// timedPolicy forwards to a policy and times each Select. It implements
// only noc.Policy: wrapping a policy that also implements noc.Matcher or
// noc.GrantObserver would hide those from the engine, so newTimedPolicy
// refuses them.
type timedPolicy struct {
	inner noc.Policy
	span  *span
}

func newTimedPolicy(inner noc.Policy, s *span) (*timedPolicy, bool) {
	if _, ok := inner.(noc.Matcher); ok {
		return nil, false
	}
	if _, ok := inner.(noc.GrantObserver); ok {
		return nil, false
	}
	return &timedPolicy{inner: inner, span: s}, true
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	t0 := time.Now()
	c := p.inner.Select(ctx, cands)
	p.span.since(t0)
	return c
}

// timedInfer is an nn.Inference over the agent's own float network, so
// installing it on core.Agent.Infer changes nothing but the timing.
type timedInfer struct {
	net  *nn.MLP
	span *span
}

func (t *timedInfer) Forward(x []float64) []float64 {
	t0 := time.Now()
	q := t.net.Forward(x)
	t.span.since(t0)
	return q
}

// timedHook times a network OnCycle hook.
func timedHook(f func(*noc.Network), s *span) func(*noc.Network) {
	return func(n *noc.Network) {
		t0 := time.Now()
		f(n)
		s.since(t0)
	}
}
