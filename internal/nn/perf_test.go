package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// apuNet builds the paper's 504->42->42 APU Q-network shape (Section 4.6),
// the largest MLP on the simulate/train hot path.
func apuNet() *MLP {
	return New([]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU},
		rand.New(rand.NewSource(11)))
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func BenchmarkHotMLPForward(b *testing.B) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkHotTrainAction(b *testing.B) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainAction(x, i%m.OutputSize(), 0.5, 0.001)
	}
}

// featureBlock is the width of one candidate's block in an agent state
// vector: the twelve Table 2 feature elements of the APU agent.
const featureBlock = 12

// candidateState returns an n-wide state vector laid out like the agents'
// (core.StateSpec): zero except the blocks of the given candidate slots,
// each block width wide. With width 12 a block is six scalar features in
// (0, 1] and two one-hot triples, as for the APU agent; otherwise every
// element of a block is a scalar feature.
func candidateState(n, width int, slots []int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for _, s := range slots {
		blk := x[s*width : (s+1)*width]
		scalars := blk
		if width == featureBlock {
			scalars = blk[:6]
			blk[6+rng.Intn(3)] = 1 // message type
			blk[9+rng.Intn(3)] = 1 // destination type
		}
		for i := range scalars {
			scalars[i] = 1 - rng.Float64() // (0, 1]
		}
	}
	return x
}

// BenchmarkHotMLPForwardAPUState is single-sample inference on the input the
// APU agent actually produces: three candidate blocks of 504 inputs, 24
// nonzeros, near the 3.6% density the frozen APU agent sees.
func BenchmarkHotMLPForwardAPUState(b *testing.B) {
	m := apuNet()
	x := candidateState(504, featureBlock, []int{3, 17, 30}, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkHotTrainActionMeshState is one online Q-learning step of the
// 60-15-15 mesh agent (5 ports x 3 VCs x 4 features) on a two-candidate
// state: 8 nonzero inputs, near the 13.7% density of online mesh training.
func BenchmarkHotTrainActionMeshState(b *testing.B) {
	m := New([]int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}, rand.New(rand.NewSource(11)))
	x := candidateState(60, 4, []int{1, 9}, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainAction(x, i%m.OutputSize(), 0.5, 0.001)
	}
}

// BenchmarkHotMLPForwardBatch32 measures the production batched-inference
// path — ForwardBatchFast, the one rl's chunked target inference rides
// (AVX2+FMA microkernel where available, the blocked scalar kernel
// otherwise).
func BenchmarkHotMLPForwardBatch32(b *testing.B) {
	m := apuNet()
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(m.InputSize(), int64(20+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatchFast(xs)
	}
}

// BenchmarkHotMLPForwardBatchExact32 measures the bit-identical blocked
// scalar batch path (ForwardBatch), the fallback and reference.
func BenchmarkHotMLPForwardBatchExact32(b *testing.B) {
	m := apuNet()
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(m.InputSize(), int64(20+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(xs)
	}
}

// BenchmarkHotQuantForward measures single-sample INT8 inference on the APU
// network — the software analog of the paper's Table 3 MAC-array engine.
func BenchmarkHotQuantForward(b *testing.B) {
	m := apuNet()
	q := Quantize(m, [][]float64{randVec(m.InputSize(), 3)})
	x := randVec(m.InputSize(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Forward(x)
	}
}

// BenchmarkHotQuantForwardBatch32 measures the blocked INT8 batch path.
func BenchmarkHotQuantForwardBatch32(b *testing.B) {
	m := apuNet()
	q := Quantize(m, [][]float64{randVec(m.InputSize(), 3)})
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(m.InputSize(), int64(20+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ForwardBatch(xs)
	}
}

// sparseVec returns an n-wide input with nnz nonzero entries in [-1, 1) at
// random positions. Half of its zeros are -0, so the skipped terms carry
// both signs of zero.
func sparseVec(n, nnz int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := 1; i < n; i += 2 {
		x[i] = math.Copysign(0, -1)
	}
	for _, i := range rng.Perm(n)[:nnz] {
		x[i] = 1 - 2*rng.Float64() // (-1, 1]
	}
	return x
}

// TestForwardBatchMatchesForward pins ForwardBatch's bit-identity contract:
// every row equals the corresponding sequential Forward call exactly, across
// architectures (including a widest-hidden-plane net, which stresses the
// nb*maxWidth scratch sizing), tile-remainder widths, and a shrink-then-grow
// batch-size sequence reusing one network's warm scratch. ForwardBatch's
// blocked kernel walks every input, so it is also the reference for
// Forward's sparse path: the sparse inputs below run from all-zero through
// one 12-feature candidate slot and the APU agent's 3.6% density to dense,
// across the sparse/dense threshold, on output widths that are not a
// multiple of Forward's 4-neuron tile.
func TestForwardBatchMatchesForward(t *testing.T) {
	archs := []struct {
		name  string
		sizes []int
		acts  []Activation
	}{
		{"square", []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}},
		// Widest plane is the hidden layer: the nb*maxWidth scratch sizing
		// must account for interior planes, not just input/output widths.
		{"wide-hidden", []int{6, 40, 4}, []Activation{Sigmoid, LeakyReLU}},
		// Odd widths exercise the 2-neuron tile's trailing-neuron path; a
		// 3-wide input exercises the all-tail (in < 4) kernel case.
		{"odd", []int{3, 7, 5}, []Activation{Tanh, Identity}},
		{"apu", []int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}},
		// ReLU zeros about half the hidden plane, so the second layer's
		// input falls on either side of the sparse/dense threshold.
		{"relu-hidden", []int{60, 23, 6}, []Activation{ReLU, LeakyReLU}},
	}
	check := func(m *MLP, name string, xs [][]float64) {
		t.Helper()
		rows := m.ForwardBatch(xs)
		if len(rows) != len(xs) {
			t.Fatalf("%s: got %d rows for %d inputs", name, len(rows), len(xs))
		}
		for b, x := range xs {
			want := m.Forward(x) // separate scratch; does not invalidate rows
			for j := range want {
				if math.Float64bits(rows[b][j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s row %d out %d: ForwardBatch %v != Forward %v",
						name, b, j, rows[b][j], want[j])
				}
			}
		}
	}
	for _, arch := range archs {
		m := New(arch.sizes, arch.acts, rand.New(rand.NewSource(4)))
		n := m.InputSize()
		// Shrink-then-grow batch sequence on one network: scratch sized by
		// the 32-batch must survive shrinking to 3 and regrow at 64.
		for _, nb := range []int{1, 3, 32, 7, 3, 64, 5} {
			xs := make([][]float64, nb)
			for i := range xs {
				xs[i] = randVec(n, int64(100*nb+i))
			}
			check(m, fmt.Sprintf("%s batch %d", arch.name, nb), xs)
		}
		block := min(featureBlock, n)
		sparseCases := []struct {
			name string
			vec  func(seed int64) []float64
		}{
			{"zero", func(seed int64) []float64 { return sparseVec(n, 0, seed) }},
			{"one-slot", func(seed int64) []float64 {
				return candidateState(n, block, []int{int(seed) % (n / block)}, seed)
			}},
			{"3.6%", func(seed int64) []float64 { return sparseVec(n, max(1, n*36/1000), seed) }},
			{"just-sparse", func(seed int64) []float64 { return sparseVec(n, n/2-1, seed) }},
			{"50%", func(seed int64) []float64 { return sparseVec(n, n/2, seed) }},
			{"100%", func(seed int64) []float64 { return sparseVec(n, n, seed) }},
		}
		for _, c := range sparseCases {
			xs := make([][]float64, 9)
			for i := range xs {
				xs[i] = c.vec(int64(500 + i))
			}
			check(m, arch.name+" "+c.name, xs)
		}
	}
}

// refTrainAction is TrainAction as plain dense loops: one accumulator per
// neuron over every input in the forward pass, and an SGD step over every
// weight of every neuron with a nonzero delta. Forward's sparse, tiled path
// and backpropFromActs' sparse update must match it bit for bit.
func refTrainAction(m *MLP, x []float64, action int, target, lr float64) float64 {
	acts := [][]float64{x}
	for _, layer := range m.Layers {
		in := acts[len(acts)-1]
		out := make([]float64, layer.Out)
		for j := range out {
			z := layer.B[j]
			for i, w := range layer.W[j*layer.In : (j+1)*layer.In] {
				z += w * in[i]
			}
			out[j] = layer.Act.apply(z)
		}
		acts = append(acts, out)
	}
	last := len(m.Layers) - 1
	y := acts[last+1]
	e := y[action] - target
	deltas := make([][]float64, len(m.Layers))
	deltas[last] = make([]float64, len(y))
	for j := range y {
		g := 0.0
		if j == action {
			g = e
		}
		deltas[last][j] = g * m.Layers[last].Act.derivFromOutput(y[j])
	}
	for l := last - 1; l >= 0; l-- {
		layer, next := m.Layers[l], m.Layers[l+1]
		dl := make([]float64, layer.Out)
		for k, d := range deltas[l+1] {
			if d == 0 {
				continue
			}
			for j, w := range next.W[k*next.In : (k+1)*next.In] {
				dl[j] += w * d
			}
		}
		for j := range dl {
			dl[j] *= layer.Act.derivFromOutput(acts[l+1][j])
		}
		deltas[l] = dl
	}
	for l, layer := range m.Layers {
		in := acts[l]
		for j, d := range deltas[l] {
			if d == 0 {
				continue
			}
			row := layer.W[j*layer.In : (j+1)*layer.In]
			step := lr * d
			for i := range row {
				row[i] -= step * in[i]
			}
			layer.B[j] -= step
		}
	}
	return e * e
}

// TestTrainActionMatchesDenseReference trains one network with TrainAction
// and a clone with refTrainAction on the same sparse agent states, and
// requires every loss, weight and bias to stay bit-identical.
func TestTrainActionMatchesDenseReference(t *testing.T) {
	archs := []struct {
		name  string
		sizes []int
		acts  []Activation
		block int // candidate feature-block width
	}{
		{"mesh", []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}, 4},
		{"apu", []int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}, featureBlock},
		// ReLU hidden units make the second layer's update sparse too.
		{"relu-hidden", []int{60, 23, 6}, []Activation{ReLU, LeakyReLU}, 4},
	}
	const steps, lr = 500, 0.05
	for _, arch := range archs {
		got := New(arch.sizes, arch.acts, rand.New(rand.NewSource(5)))
		want := got.Clone()
		n, slots := got.InputSize(), got.InputSize()/arch.block
		rng := rand.New(rand.NewSource(6))
		for step := 0; step < steps; step++ {
			x := candidateState(n, arch.block, rng.Perm(slots)[:1+rng.Intn(3)], int64(step))
			action, target := rng.Intn(got.OutputSize()), rng.Float64()
			lg := got.TrainAction(x, action, target, lr)
			lw := refTrainAction(want, x, action, target, lr)
			if math.Float64bits(lg) != math.Float64bits(lw) {
				t.Fatalf("%s step %d: loss %v, reference %v", arch.name, step, lg, lw)
			}
		}
		for l, layer := range got.Layers {
			ref := want.Layers[l]
			for i := range layer.W {
				if math.Float64bits(layer.W[i]) != math.Float64bits(ref.W[i]) {
					t.Fatalf("%s layer %d w[%d] = %v, reference %v", arch.name, l, i, layer.W[i], ref.W[i])
				}
			}
			for j := range layer.B {
				if math.Float64bits(layer.B[j]) != math.Float64bits(ref.B[j]) {
					t.Fatalf("%s layer %d b[%d] = %v, reference %v", arch.name, l, j, layer.B[j], ref.B[j])
				}
			}
		}
	}
}

// ulpDistance returns the number of representable float64 values between a
// and b (0 when bit-identical).
func ulpDistance(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude float encoding onto the ordered integer line.
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestForwardBatchFastULP pins the ForwardBatchFast equivalence contract:
// FMA contraction and 4-lane interleaved partial sums may perturb each output
// by a few ULPs relative to sequential Forward, never more. The relative
// bound (512 ULPs ≈ 1e-13 relative) is paired with a tiny absolute floor for
// outputs that a cancelling sum drives toward zero, where ULPs lose meaning —
// a near-zero result can differ by hundreds of its own denormal-scale ULPs
// while the absolute error stays ~1e-18. Any kernel bug (wrong element,
// dropped tail, bad reduction) overshoots both bounds by orders of magnitude.
// Off amd64/AVX2 the fast path IS ForwardBatch and the distance is 0.
func TestForwardBatchFastULP(t *testing.T) {
	const (
		maxULP = 512
		absTol = 1e-12
	)
	for _, arch := range [][]int{{504, 42, 42}, {6, 40, 4}, {3, 7, 5}, {60, 15, 15}} {
		m := New(arch, []Activation{Sigmoid, LeakyReLU}, rand.New(rand.NewSource(8)))
		for _, nb := range []int{1, 4, 32, 33} {
			xs := make([][]float64, nb)
			for i := range xs {
				xs[i] = randVec(m.InputSize(), int64(300*nb+i))
			}
			rows := m.ForwardBatchFast(xs)
			for b, x := range xs {
				want := m.Forward(x)
				for j := range want {
					d := ulpDistance(rows[b][j], want[j])
					if d > maxULP && math.Abs(rows[b][j]-want[j]) > absTol {
						t.Fatalf("%v nb=%d row %d out %d: fast %v vs exact %v (%d ULPs)",
							arch, nb, b, j, rows[b][j], want[j], d)
					}
				}
			}
		}
	}
}

func TestForwardBatchFastZeroAllocs(t *testing.T) {
	m := apuNet()
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(m.InputSize(), int64(i))
	}
	m.ForwardBatchFast(xs) // warm the batch scratch
	if allocs := testing.AllocsPerRun(100, func() { m.ForwardBatchFast(xs) }); allocs != 0 {
		t.Fatalf("ForwardBatchFast allocates %v objects per call, want 0", allocs)
	}
}

func TestForwardZeroAllocs(t *testing.T) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	if allocs := testing.AllocsPerRun(100, func() { m.Forward(x) }); allocs != 0 {
		t.Fatalf("Forward allocates %v objects per call, want 0", allocs)
	}
}

func TestForwardBatchZeroAllocs(t *testing.T) {
	m := apuNet()
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(m.InputSize(), int64(i))
	}
	m.ForwardBatch(xs) // warm the batch scratch
	if allocs := testing.AllocsPerRun(100, func() { m.ForwardBatch(xs) }); allocs != 0 {
		t.Fatalf("ForwardBatch allocates %v objects per call, want 0", allocs)
	}
}

func TestTrainActionZeroAllocs(t *testing.T) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	if allocs := testing.AllocsPerRun(100, func() {
		m.TrainAction(x, 3, 0.5, 0.001)
	}); allocs != 0 {
		t.Fatalf("TrainAction allocates %v objects per call, want 0", allocs)
	}
}
