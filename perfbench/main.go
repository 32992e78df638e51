// Command perfbench is the end-to-end benchmark of the mlnoc simulators. It
// drives the repository's public entry points in one process on one of four
// workloads and prints, as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time and simulated
// outcomes); with -trace 1 they are the per-layer ones of a traced run. Run it
// from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload apu-bfs --seed 1 --seconds 10 --trace 0
//
// NOTES.md records why each workload exists and what each metric means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"msgs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"sim_latency_cycles", "cycles"},
	{"sim_exec_cycles", "cycles"},
}

// cpuModules are the modules whose self-time share the CPU profile reports.
var cpuModules = []string{"noc", "traffic", "fault", "arb", "core", "nn", "rl", "apu", "synfull"}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"noc.step.calls", "count"}, {"noc.step.ns_p50", "ns"}, {"noc.step.ns_p99", "ns"},
		{"noc.step.share", "frac"},
		{"noc.active_routers_mean", "count"}, {"noc.idle_cycle_frac", "frac"},
		{"noc.pending_inj_max", "count"}, {"noc.inflight_mean", "count"},
		{"noc.link_util_mean", "frac"}, {"noc.allocs_per_cycle", "count"},
		{"traffic.tick.calls", "count"}, {"traffic.tick.ns_p50", "ns"},
		{"traffic.tick.share", "frac"}, {"traffic.generated", "count"},
		{"fault.reroutes", "count"}, {"fault.requeued", "count"}, {"fault.unreachable", "count"},
		{"arb.select.calls", "count"}, {"arb.select.ns_p50", "ns"}, {"arb.select.share", "frac"},
		{"core.select.calls", "count"}, {"core.select.ns_p50", "ns"}, {"core.select.ns_p99", "ns"},
		{"core.select.share", "frac"}, {"core.features.share", "frac"},
		{"nn.forward.calls", "count"}, {"nn.forward.ns_p50", "ns"}, {"nn.forward.ns_p99", "ns"},
		{"nn.forward.share", "frac"},
		{"rl.train.calls", "count"}, {"rl.train.ns_p50", "ns"}, {"rl.train.ns_p99", "ns"},
		{"rl.train.share", "frac"},
		{"apu.step.calls", "count"}, {"apu.step.ns_p50", "ns"}, {"apu.step.share", "frac"},
	}
	for _, m := range cpuModules {
		ms = append(ms, metricSpec{m + ".cpu_share", "frac"})
	}
	return append(ms,
		metricSpec{"bench.cpu_share", "frac"}, metricSpec{"other.cpu_share", "frac"},
		metricSpec{"prof.samples", "count"},
		metricSpec{"runtime.gc_cpu_share", "frac"}, metricSpec{"trace.overhead_frac", "frac"})
}()

// report is the result of one run.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	table             []string // human-readable lines printed before the JSON
}

// bench is one run's configuration.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: apu-bfs, mesh32-faulted, train-mesh4, apu-nn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "length of the measured phase, seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of apu-bfs, mesh32-faulted, train-mesh4, apu-nn), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	// The simulators step one network from one goroutine (shards K=1); two
	// Ps leave room for the garbage collector, as on the 2-CPU reference
	// machine.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	b := bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.table {
		fmt.Println(l)
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL", f)
	}
	out, err := resultJSON(rep, b.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// resultJSON renders the last output line.
func resultJSON(rep *report, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	ms := map[string]value{}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", s.name)
		}
		ms[s.name] = value{v, s.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
}

// checker accounts passes and their output checks.
type checker struct {
	rep   *report
	first map[int]string // instance -> summary of its first plain pass
}

// record counts one pass. A plain pass must repeat the first plain pass of
// its instance (determinism); a traced pass must equal it (passivity of the
// tracing wrappers, and fidelity of the replicated entry point).
func (c *checker) record(label string, inst int, traced bool, o outcome) {
	c.rep.attempted++
	fails := o.failures
	if ref, ok := c.first[inst]; ok {
		if o.summary != ref {
			check := "determinism"
			if traced {
				check = "passivity"
			}
			fails = append(fails, fmt.Sprintf("%s: result %q differs from the first plain pass %q", check, o.summary, ref))
		}
	} else if !traced {
		c.first[inst] = o.summary
	}
	if len(fails) > 0 {
		c.rep.failed++
		for _, f := range fails {
			c.rep.failures = append(c.rep.failures, label+" "+f)
		}
	}
}

func (b *bench) label(inst int, traced bool) string {
	kind := "plain"
	if traced {
		kind = "traced"
	}
	return fmt.Sprintf("%s instance %d (seed %d, %s):", b.w.name, inst, instanceSeed(b.seed, inst), kind)
}

func (b *bench) run() (*report, error) {
	var setups []float64
	var rn runner
	for i := 0; i < max(1, b.w.setupReps); i++ {
		sw := startWatch()
		r, err := b.w.setup(b.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		if b.w.setupReps > 0 {
			setups = append(setups, sw.stop().cpu.Seconds())
		}
		rn = r
	}
	rep := &report{metrics: map[string]float64{}}
	chk := &checker{rep: rep, first: map[int]string{}}
	if b.trace {
		if err := b.measureTraced(rn, chk); err != nil {
			return nil, err
		}
	} else if err := b.measure(rn, chk, setups); err != nil {
		return nil, err
	}
	if err := b.checkPinned(rn, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// plainPass is one timed pass through the entry point.
type plainPass struct {
	inst       int
	o          outcome
	prep, meas cost
}

// measure is the untraced run: plain passes over the instances in turn for
// the measured phase, then one traced pass per instance to check outputs
// and count delivered messages.
func (b *bench) measure(rn runner, chk *checker, setups []float64) error {
	var passes []plainPass
	deadline := time.Now().Add(b.seconds)
	for k := 0; k < b.w.instances || time.Now().Before(deadline); k++ {
		inst := k % b.w.instances
		// Every pass starts from a collected heap returned to the system,
		// so garbage a previous pass left behind is neither collected on
		// this pass's time nor counted in its resident set.
		debug.FreeOSMemory()
		o, prep, meas, err := rn.plain(instanceSeed(b.seed, inst))
		if err != nil {
			return err
		}
		chk.record(b.label(inst, false), inst, false, o)
		passes = append(passes, plainPass{inst, o, prep, meas})
		if prep.cpu > 0 {
			setups = append(setups, prep.cpu.Seconds())
		}
	}
	delivered := make([]int64, b.w.instances)
	digests := make([]string, b.w.instances)
	for inst := range delivered {
		o, _, err := rn.traced(instanceSeed(b.seed, inst), newRecorder())
		if err != nil {
			return err
		}
		chk.record(b.label(inst, true), inst, true, o)
		delivered[inst] = o.delivered
		digests[inst] = digest(o.stats)
	}

	perPass := func(f func(p plainPass) float64) []float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return xs
	}
	series := map[string][]float64{
		"setup_s": setups,
		"cpu_s":   perPass(func(p plainPass) float64 { return p.meas.cpu.Seconds() }),
		"sim_cycles_per_s": perPass(func(p plainPass) float64 {
			return float64(p.o.cycles) / p.meas.cpu.Seconds()
		}),
		"msgs_per_s": perPass(func(p plainPass) float64 {
			return float64(delivered[p.inst]) / p.meas.cpu.Seconds()
		}),
		"wall_s":             perPass(func(p plainPass) float64 { return p.meas.wall.Seconds() }),
		"sim_latency_cycles": perPass(func(p plainPass) float64 { return p.o.latency }),
		"sim_exec_cycles":    perPass(func(p plainPass) float64 { return p.o.exec }),
		"peak_rss_mb": perPass(func(p plainPass) float64 {
			return float64(p.meas.peakRSS) / (1 << 20)
		}),
	}
	rep := chk.rep
	rep.metrics["setup_s"] = median(setups)
	// Per-pass metrics are the mean over instances of each instance's
	// median, so a run's value does not depend on which instance the
	// overall median happens to fall on. The simulated ones are constant
	// per instance.
	for name, xs := range series {
		if name == "setup_s" {
			continue
		}
		byInst := make([][]float64, b.w.instances)
		for i, p := range passes {
			byInst[p.inst] = append(byInst[p.inst], xs[i])
		}
		meds := make([]float64, len(byInst))
		for i, ys := range byInst {
			meds[i] = median(ys)
		}
		rep.metrics[name] = mean(meds)
	}

	rep.table = append(rep.table, fmt.Sprintf("workload %s seed %d: %d timed passes over %d instances, digests %s",
		b.w.name, b.seed, len(passes), b.w.instances, strings.Join(digests, " ")))
	rep.table = append(rep.table, fmt.Sprintf("%-20s %-7s %14s %14s %14s %5s  %s",
		"metric", "unit", "value", "q1", "q3", "n", "tail"))
	// wall_s is shown for reference only: hypervisor steal makes it too
	// noisy to gate on (see NOTES.md).
	for _, s := range append(endToEnd, metricSpec{"wall_s", "s"}) {
		xs := series[s.name]
		q1, _, q3 := quartiles(xs)
		tail := "-"
		if p, ok := tailPercentile(int64(len(xs))); ok {
			tail = fmt.Sprintf("p%g=%.6g", p, percentile(xs, p))
		}
		rep.table = append(rep.table, fmt.Sprintf("%-20s %-7s %14.6g %14.6g %14.6g %5d  %s",
			s.name, s.unit, rep.metrics[s.name], q1, q3, len(xs), tail))
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime reads the runtime's estimates of GC and busy (non-idle) CPU time.
func cpuTime() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// measureTraced is the traced run: for the measured phase, each instance in
// turn gets a plain pass and then a traced pass, under one CPU profile. The
// spans come from the traced passes, the module shares from the profile
// samples of the plain passes' measured phases (see measured).
func (b *bench) measureTraced(rn runner, chk *checker) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	gc0, busy0 := cpuTime()
	total := newRecorder()
	var overhead []float64
	var tracedWall time.Duration
	var outcomes []outcome
	deadline := time.Now().Add(b.seconds)
	err := func() error {
		for k := 0; k < b.w.instances || time.Now().Before(deadline); k++ {
			inst := k % b.w.instances
			seed := instanceSeed(b.seed, inst)
			debug.FreeOSMemory()
			po, _, pmeas, err := rn.plain(seed)
			if err != nil {
				return err
			}
			chk.record(b.label(inst, false), inst, false, po)
			rec := newRecorder()
			debug.FreeOSMemory()
			to, tmeas, err := rn.traced(seed, rec)
			if err != nil {
				return err
			}
			chk.record(b.label(inst, true), inst, true, to)
			total.merge(rec)
			tracedWall += tmeas.wall
			outcomes = append(outcomes, to)
			overhead = append(overhead, tmeas.cpu.Seconds()/pmeas.cpu.Seconds()-1)
		}
		return nil
	}()
	gc1, busy1 := cpuTime()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	shares, samples, err := moduleShares(prof.Bytes(), "pass", "plain")
	if err != nil {
		return err
	}

	m := chk.rep.metrics
	passes := float64(len(outcomes))
	for i, name := range spanNames {
		h := &total.spans[i].hist
		m[name+".calls"] = float64(h.n) / passes
		m[name+".ns_p50"] = h.quantile(0.5)
		m[name+".ns_p99"] = 0 // below 1000 calls the p99 has fewer than ten samples beyond it
		if h.n >= 1000 {
			m[name+".ns_p99"] = h.quantile(0.99)
		}
		m[name+".share"] = float64(h.sum) / float64(tracedWall)
	}
	m["core.features.share"] = m["core.select.share"] - m["nn.forward.share"]
	if total.cycles > 0 {
		c := float64(total.cycles)
		m["noc.active_routers_mean"] = float64(total.activeSum) / c
		m["noc.idle_cycle_frac"] = float64(total.idleCycles) / c
		m["noc.inflight_mean"] = float64(total.inflightSum) / c
		m["noc.link_util_mean"] = total.utilSum / c
	}
	m["noc.pending_inj_max"] = float64(total.pendingMax)
	m["noc.allocs_per_cycle"] = float64(total.steadyAllocs) / float64(total.steadyCycles)
	for _, name := range []string{"traffic.generated", "fault.reroutes", "fault.requeued", "fault.unreachable"} {
		s := 0.0
		for _, o := range outcomes {
			s += o.layer[name]
		}
		m[name] = s / passes
	}
	for _, mod := range append(cpuModules, "bench", "other") {
		m[mod+".cpu_share"] = shares[mod]
	}
	m["prof.samples"] = float64(samples)
	m["runtime.gc_cpu_share"] = 0 // the runtime updates its CPU estimates at each GC
	if busy1 > busy0 {
		m["runtime.gc_cpu_share"] = (gc1 - gc0) / (busy1 - busy0)
	}
	m["trace.overhead_frac"] = median(overhead)

	rep := chk.rep
	rep.table = append(rep.table, fmt.Sprintf("workload %s seed %d: %d plain+traced pass pairs over %d instances; cpu profile: %d samples of plain passes",
		b.w.name, b.seed, len(outcomes), b.w.instances, samples))
	rep.table = append(rep.table, fmt.Sprintf("%-14s %12s %12s %12s %8s %10s", "span", "calls/pass", "ns_p50", "ns_p99", "share", "cpu_share"))
	for _, name := range spanNames {
		mod := name[:strings.IndexByte(name, '.')]
		rep.table = append(rep.table, fmt.Sprintf("%-14s %12.0f %12.0f %12.0f %8.4f %10.4f",
			name, m[name+".calls"], m[name+".ns_p50"], m[name+".ns_p99"], m[name+".share"], shares[mod]))
	}
	var rest []string
	for _, s := range perLayer {
		if !strings.Contains(s.name, ".calls") && !strings.Contains(s.name, ".ns_") && !strings.HasSuffix(s.name, ".share") {
			rest = append(rest, fmt.Sprintf("%s=%.6g", s.name, m[s.name]))
		}
	}
	sort.Strings(rest)
	rep.table = append(rep.table, rest...)
	return nil
}

// checkPinned reruns the pinned instance traced and compares its digest
// with the pinned value for this platform.
func (b *bench) checkPinned(rn runner, rep *report) error {
	key := b.w.name + "/" + platformKey()
	o, _, err := rn.traced(instanceSeed(pinnedSeed, 0), newRecorder())
	if err != nil {
		return err
	}
	rep.attempted++
	got := digest(o.stats)
	want, pinned := pinnedDigests[key]
	switch {
	case len(o.failures) > 0:
		rep.failed++
		for _, f := range o.failures {
			rep.failures = append(rep.failures, fmt.Sprintf("%s pinned instance: %s", b.w.name, f))
		}
	case !pinned:
		rep.table = append(rep.table, fmt.Sprintf("digest %s: %s (no pinned value for this platform; not checked)", key, got))
	case got != want:
		rep.failed++
		rep.failures = append(rep.failures, fmt.Sprintf("%s pinned instance: digest: %s, pinned %s (simulated statistics changed)", key, got, want))
	default:
		rep.table = append(rep.table, fmt.Sprintf("digest %s: %s matches the pin", key, got))
	}
	return nil
}
