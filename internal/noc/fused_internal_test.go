package noc

import "testing"

// orderPolicy is deliberately sensitive to candidate order and count: any
// divergence between the engine's single-scan arbitration and the reference's
// per-output gather (extra, missing or reordered candidates) changes which
// message wins and cascades through the rest of the run.
type orderPolicy struct{}

func (orderPolicy) Name() string { return "order-sensitive" }

func (orderPolicy) Select(ctx *ArbContext, cands []Candidate) int {
	return int(ctx.Cycle+int64(len(cands))+int64(ctx.Out)) % len(cands)
}

// orderMatcher adds a whole-router matching with the same order sensitivity:
// per request it prefers the (cycle+len)-th candidate, falling back to the
// first whose input port is still free, and leaves the output idle otherwise.
type orderMatcher struct{ orderPolicy }

func (orderMatcher) Match(ctx *MatchContext, reqs []Request) []int {
	grants := make([]int, len(reqs))
	var used [MaxPorts]bool
	for i, req := range reqs {
		grants[i] = -1
		start := int(ctx.Cycle+int64(len(req.Cands))) % len(req.Cands)
		for k := 0; k < len(req.Cands); k++ {
			j := (start + k) % len(req.Cands)
			if !used[req.Cands[j].Port] {
				grants[i] = j
				used[req.Cands[j].Port] = true
				break
			}
		}
	}
	return grants
}

// driveEquivalence runs one seeded 4x4 workload under Step's single scan per
// router and under the reference's per-output gather, and requires
// bit-identical delivery traces and stats.
func driveEquivalence(t *testing.T, policy Policy) {
	t.Helper()
	cfg := Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2}
	base, baseLog := shardRun(t, policy, cfg, refEngine, 600, nil, nil)
	net, log := shardRun(t, policy, cfg, 1, 600, nil, nil)
	requireIdentical(t, 1, base, baseLog, net, log)
}

func TestFusedArbitrationMatchesLegacy(t *testing.T) {
	driveEquivalence(t, orderPolicy{})
}

func TestFusedMatchedArbitrationMatchesLegacy(t *testing.T) {
	driveEquivalence(t, orderMatcher{})
}
