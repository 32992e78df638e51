package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"

	"mlnoc/internal/nn"
)

// Pinned simulated-statistics digests, one per workload, of instance 0 at
// seed pinnedSeed, as produced by the code this benchmark was written
// against. A run recomputes the digest with a traced pass and fails it when
// it differs: the benchmark must measure the same simulation a later change
// claims to speed up.
//
// Keys carry the architecture and the nn float kernel (see nnKernel):
// rl.TrainBatch runs nn.ForwardBatchFast, whose fused multiply-add path is
// only ULP-close to the exact one, so training trajectories — and any float
// policy — are pinned per platform. Platforms without a pin report their
// digest unchecked.
const pinnedSeed = 1

var pinnedDigests = map[string]string{
	"apu-bfs/amd64/fma":        "b545d0ac85902f4f",
	"mesh32-faulted/amd64/fma": "4ef52f0d7c92558b",
	"train-mesh4/amd64/fma":    "996c373cbb4e497b",
	"apu-nn/amd64/fma":         "b48472099a4ea3de",
}

// digest is a short hash of a traced pass's full statistics.
func digest(stats string) string {
	sum := sha256.Sum256([]byte(stats))
	return hex.EncodeToString(sum[:8])
}

// platformKey names the platform part of a pinned-digest key.
func platformKey() string { return runtime.GOARCH + "/" + nnKernel() }

// nnKernel names the kernel behind nn.MLP.ForwardBatchFast on this machine:
// "exact" when it reproduces ForwardBatch bit for bit, "fma" when it does
// not, which is what the fused multiply-add path produces.
func nnKernel() string {
	rng := rand.New(rand.NewSource(1))
	m := nn.New([]int{64, 32, 16}, []nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rng)
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, 64)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	var exact [][]float64
	for _, row := range m.ForwardBatch(xs) {
		exact = append(exact, append([]float64(nil), row...))
	}
	for i, row := range m.ForwardBatchFast(xs) {
		for j, v := range row {
			if v != exact[i][j] {
				return "fma"
			}
		}
	}
	return "exact"
}
