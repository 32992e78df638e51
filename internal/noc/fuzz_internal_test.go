package noc

import (
	"fmt"
	"testing"
)

// engineScenario is one differential-fuzz case decoded from raw bytes.
type engineScenario struct {
	w      workload
	events []faultEvent
}

// faultEvent toggles one fault at a cycle: kind 0 flips the link leaving
// router target through its port-th connected direction port, kind 1 flips
// the freeze of router target, kind 2 flips node target's attach link.
type faultEvent struct {
	cycle, kind, target, port int
}

// decodeScenario maps arbitrary bytes onto a small engine run; bytes past the
// end of data read as zero, so every input (the empty one included) decodes.
//
//	data[0], data[1]  width, height: 3 + b%4
//	data[2]           bit 0 torus, bit 1 orderMatcher (else orderPolicy),
//	                  bit 2 attachRouting (else built-in X-Y), K = 1 + (b>>3)%3
//	data[3]           VCs = 1 + b%4, BufferCap = 1 + (b>>2)%3
//	data[4]           injection rate (1 + b%10)/25
//	data[5]           traffic seed
//	data[6:]          up to 16 fault events of 3 bytes: cycle, kind+port, target
func decodeScenario(data []byte) engineScenario {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	w := workload{
		cfg: Config{
			Width: 3 + at(0)%4, Height: 3 + at(1)%4, Torus: at(2)&1 != 0,
			VCs: 1 + at(3)%4, BufferCap: 1 + (at(3)>>2)%3,
		},
		policy: orderPolicy{},
		shards: 1 + (at(2)>>3)%3,
		cycles: 256,
		rate:   float64(1+at(4)%10) / 25,
		seed:   int64(at(5)),
		drain:  1500,
	}
	if at(2)&2 != 0 {
		w.policy = orderMatcher{}
	}
	if at(2)&4 != 0 {
		w.routing = attachRouting{}
	}
	sc := engineScenario{w: w}
	for i := 6; i+2 < len(data) && len(sc.events) < 16; i += 3 {
		sc.events = append(sc.events, faultEvent{
			cycle: at(i), kind: at(i+1) % 3, port: at(i+1) / 3, target: at(i + 2),
		})
	}
	sc.w.faults = sc.apply
	return sc
}

// apply fires the events scheduled for cycle.
func (sc engineScenario) apply(net *Network, cycle int) {
	for _, e := range sc.events {
		if e.cycle != cycle {
			continue
		}
		switch e.kind {
		case 0:
			r := net.routers[e.target%len(net.routers)]
			var dirs []PortID
			for p := PortNorth; p < MaxPorts; p++ {
				if r.peerRouter[p] != nil {
					dirs = append(dirs, p)
				}
			}
			p := dirs[e.port%len(dirs)]
			net.SetLinkDown(r.id, p, r.LinkUp(p))
		case 1:
			r := net.routers[e.target%len(net.routers)]
			net.FreezeRouter(r.id, !r.frozen)
		case 2:
			nd := net.nodes[e.target%len(net.nodes)]
			net.SetLinkDown(nd.Router.id, nd.Port, nd.Router.LinkUp(nd.Port))
		}
	}
}

func (sc engineScenario) String() string {
	w := sc.w
	return fmt.Sprintf("%+v policy=%s routing=%v K=%d rate=%.2f seed=%d events=%+v",
		w.cfg, w.policy.Name(), w.routing, w.shards, w.rate, w.seed, sc.events)
}

// FuzzEngineDifferential runs one decoded scenario under Step (at the decoded
// shard count, with the parallel scans forked every cycle) and under the
// full-scan reference refStep, and requires bit-identical delivery traces,
// Stats and FaultStats. The committed corpus in
// testdata/fuzz/FuzzEngineDifferential runs as an ordinary test; explore
// further with
//
//	go test -run '^$' -fuzz FuzzEngineDifferential ./internal/noc
func FuzzEngineDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		ref := sc.w
		ref.shards = refEngine
		base, baseLog := runWorkload(t, ref)
		got, gotLog := runWorkload(t, sc.w)
		if d := diffEngines(base, baseLog, got, gotLog); d != "" {
			t.Fatalf("%v: %s", sc, d)
		}
	})
}
