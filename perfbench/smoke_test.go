package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestWorkloadSmoke runs each workload's pinned instance once plain and once
// traced: the traced replica must reproduce the entry point's result, pass
// every output check, and match the pinned digest where this platform has
// one.
func TestWorkloadSmoke(t *testing.T) {
	key := platformKey()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rn, err := w.setup(pinnedSeed)
			if err != nil {
				t.Fatal(err)
			}
			seed := instanceSeed(pinnedSeed, 0)
			plain, _, meas, err := rn.plain(seed)
			if err != nil {
				t.Fatal(err)
			}
			if meas.cpu <= 0 || meas.wall <= 0 {
				t.Errorf("measured phase cost %+v", meas)
			}
			rec := newRecorder()
			traced, _, err := rn.traced(seed, rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append(plain.failures, traced.failures...) {
				t.Error(f)
			}
			if plain.summary != traced.summary {
				t.Errorf("traced result differs from the entry point's:\n plain  %s\n traced %s", plain.summary, traced.summary)
			}
			if traced.delivered <= 0 || traced.cycles <= 0 || rec.cycles <= 0 {
				t.Errorf("traced pass delivered %d messages in %d cycles (%d sampled)",
					traced.delivered, traced.cycles, rec.cycles)
			}
			got := digest(traced.stats)
			if want, ok := pinnedDigests[w.name+"/"+key]; !ok {
				t.Logf("digest %s on %s (no pin for this platform)", got, key)
			} else if got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}

// TestModuleShares profiles a labelled busy loop and checks that the decoder
// finds its samples, attributes them to this package, and honours the label
// filter.
func TestModuleShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	measured(func() { spin(300 * time.Millisecond) })
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()

	shares, n, err := moduleShares(buf.Bytes(), "pass", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("only %d labelled samples in 300ms of spinning", n)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %.2f of %d samples, want most of them (%v)", shares["bench"], n, shares)
	}
	_, all, err := moduleShares(buf.Bytes(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if all <= n {
		t.Errorf("%d samples in total, %d labelled: the unlabelled spin was not excluded", all, n)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink += x
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"mlnoc/internal/noc.(*Network).Step":       "noc",
		"mlnoc/internal/nn.fmaDot4x2":              "nn",
		"mlnoc/internal/fault.Spec.Equip.func1":    "fault",
		"main.(*timedPolicy).Select":               "bench",
		"mlnoc/perfbench.spin":                     "bench",
		"runtime.mallocgc":                         "",
		"math/rand.(*Rand).Float64":                "",
		"mlnoc/internal/core.(*Agent).Select-fm":   "core",
		"mlnoc/internal/synfull.(*Instance).Tick":  "synfull",
		"mlnoc/internal/apu.(*Runner).Step":        "apu",
		"mlnoc/internal/traffic.(*Injector).Tick":  "traffic",
		"mlnoc/internal/rl.(*DQL).TrainBatch":      "rl",
		"mlnoc/internal/arb.(*GlobalAge).Select":   "arb",
		"vendor/golang.org/x/net/http2.(*Framer)X": "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the metrics this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
