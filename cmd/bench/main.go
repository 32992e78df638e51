// Command bench runs the repository's hot-path benchmark suite (the
// BenchmarkHot* benchmarks next to the simulate/train hot path) and emits a
// machine-readable snapshot for regression tracking:
//
//	bench -out BENCH_5.json                  # measure and write a snapshot
//	bench -diff BENCH_5.json                 # measure and compare to a snapshot
//	bench -diff BENCH_5.json -threshold 30   # tolerate up to +30% ns/op drift
//
// In -diff mode the exit status is 1 when any benchmark regressed beyond the
// threshold on ns/op, allocs/op, or bytes/op. A snapshot entry the -bench
// pattern selects but the run no longer produces is listed as (removed) and
// does not affect the exit status. Allocation counts are exact, so
// any growth from a zero-alloc baseline fails regardless of threshold; bytes
// get a 64-byte absolute slack so whole-object jitter on tiny baselines does
// not flag. CI runs it as a non-gating smoke job so noisy runners flag rather
// than fail a build.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mlnoc/internal/cliutil"
)

// Benchmark is one benchmark measurement. Metrics carries any custom
// b.ReportMetric units (e.g. msgs/s/core); they are recorded for inspection
// but never gate a diff, because custom metrics are throughput-style numbers
// that depend on the machine as much as on the code.
type Benchmark struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the on-disk format (BENCH_5.json).
type Snapshot struct {
	Go         string      `json:"go"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var defaultPkgs = []string{
	"./internal/noc", "./internal/nn", "./internal/rl", "./internal/core",
	"./internal/serve", "./internal/telemetry",
}

// gomaxprocsSuffix strips the `-8` GOMAXPROCS suffix from a benchmark name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine tokenizes one `go test -bench` result line:
//
//	BenchmarkHotX-8  1234  56.7 ns/op  321 msgs/s/core  8 B/op  2 allocs/op
//
// The tail is a sequence of (value, unit) field pairs in no fixed order —
// b.ReportMetric inserts custom units between ns/op and the -benchmem pair —
// so the line is parsed pairwise instead of by a positional regexp (which
// used to silently drop B/op and allocs/op whenever a custom metric was
// present, zeroing alloc baselines in the snapshot).
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil { // iteration count
		return Benchmark{}, false
	}
	b := Benchmark{Name: strings.TrimPrefix(gomaxprocsSuffix.ReplaceAllString(f[0], ""), "Benchmark")}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
			seenNs = true
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, seenNs
}

func main() {
	out := flag.String("out", "", "write the snapshot JSON to this file")
	diff := flag.String("diff", "", "compare against this baseline snapshot instead of writing one")
	threshold := flag.Float64("threshold", 25, "regression tolerance in percent for -diff (ns/op, allocs/op, bytes/op)")
	pattern := flag.String("bench", "Hot|JobHash|SubmitCachedJob",
		"benchmark name pattern passed to go test -bench")
	benchtime := flag.String("benchtime", "", "value for go test -benchtime (e.g. 100x, 2s); empty = default")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	flag.Parse()

	log := cliutil.SetupLogger("bench", &logCfg)
	fail := func(format string, args ...any) {
		log.Error(fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if *out == "" && *diff == "" {
		fail("pass -out FILE to record a snapshot or -diff FILE to compare against one")
	}

	snap, err := measure(*pattern, *benchtime)
	if err != nil {
		fail("%v", err)
	}
	if len(snap.Benchmarks) == 0 {
		fail("no benchmarks matched pattern %q", *pattern)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	}
	if *diff != "" {
		base, err := load(*diff)
		if err != nil {
			fail("%v", err)
		}
		selected, err := benchSelector(*pattern)
		if err != nil {
			fail("%v", err)
		}
		if regressed := compare(os.Stdout, base, snap, *threshold, selected); regressed {
			os.Exit(1)
		}
	}
}

func measure(pattern, benchtime string) (*Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, defaultPkgs...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s", err, stderr.String())
	}
	snap := &Snapshot{Go: runtime.Version()}
	pkg := ""
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b.Pkg = pkg
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	return snap, sc.Err()
}

func load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{}
	if err := json.Unmarshal(buf, snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// benchSelector returns whether the -bench pattern selects a snapshot entry,
// matching its top-level regexp against the benchmark function name as go
// test does.
func benchSelector(pattern string) (func(name string) bool, error) {
	top, _, _ := strings.Cut(pattern, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		return nil, fmt.Errorf("-bench: %v", err)
	}
	return func(name string) bool {
		fn, _, _ := strings.Cut(name, "/")
		return re.MatchString("Benchmark" + fn)
	}, nil
}

// compare writes the diff table of cur against base to w and reports whether
// any benchmark regressed. Base entries that selected picks but cur lacks are
// listed as (removed).
func compare(w io.Writer, base, cur *Snapshot, threshold float64, selected func(name string) bool) (regressed bool) {
	byKey := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		byKey[b.Pkg+"/"+b.Name] = b
	}
	fmt.Fprintf(w, "%-42s %12s %12s %8s %s\n", "benchmark", "base ns/op", "ns/op", "delta", "allocs")
	for _, c := range cur.Benchmarks {
		key := c.Pkg + "/" + c.Name
		b, ok := byKey[key]
		if !ok {
			fmt.Fprintf(w, "%-42s %12s %12.0f %8s %d (new)\n", c.Name, "-", c.NsPerOp, "-", c.AllocsPerOp)
			continue
		}
		delete(byKey, key)
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		flag := ""
		if delta > threshold {
			flag = "  << REGRESSION"
			regressed = true
		}
		// Allocation counts are exact (not timer noise), so any increase from
		// a zero-alloc baseline is a real leak into the hot path and fails
		// outright; from a nonzero baseline the percentage threshold applies.
		allocs := fmt.Sprintf("%d", c.AllocsPerOp)
		if c.AllocsPerOp > b.AllocsPerOp {
			allocs = fmt.Sprintf("%d (was %d)", c.AllocsPerOp, b.AllocsPerOp)
			if b.AllocsPerOp == 0 ||
				float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+threshold/100) {
				flag = "  << ALLOC REGRESSION"
				regressed = true
			}
		}
		// Bytes/op gets a small absolute slack on top of the percentage: tiny
		// baselines (a few bytes of amortized growth) jitter by whole-object
		// steps that are not regressions.
		byteSlack := float64(b.BytesPerOp) * threshold / 100
		if byteSlack < 64 {
			byteSlack = 64
		}
		if float64(c.BytesPerOp) > float64(b.BytesPerOp)+byteSlack {
			allocs += fmt.Sprintf(" %dB (was %dB)", c.BytesPerOp, b.BytesPerOp)
			flag = "  << BYTES REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-42s %12.0f %12.0f %+7.1f%% %s%s%s\n",
			c.Name, b.NsPerOp, c.NsPerOp, delta, allocs, renderMetrics(c.Metrics), flag)
	}
	for _, b := range base.Benchmarks {
		if _, gone := byKey[b.Pkg+"/"+b.Name]; gone && selected(b.Name) {
			fmt.Fprintf(w, "%-42s %12.0f %12s %8s - (removed)\n", b.Name, b.NsPerOp, "-", "-")
		}
	}
	if regressed {
		fmt.Fprintf(w, "\nregressions beyond +%.0f%% detected (ns/op, allocs/op, or bytes/op)\n", threshold)
	}
	return regressed
}

// renderMetrics formats custom metrics for the diff table, informational only.
func renderMetrics(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	var b strings.Builder
	for _, u := range units {
		fmt.Fprintf(&b, "  %.1f %s", m[u], u)
	}
	return b.String()
}
