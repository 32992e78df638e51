// Package nn implements the small multi-layer perceptrons used by the deep
// Q-learning agent: dense layers with sigmoid/ReLU/tanh activations, plain
// SGD backpropagation, Xavier initialization, weight introspection for the
// paper's heatmap analysis, and gob serialization.
//
// The paper's agents are deliberately shallow (one hidden layer) so their
// weights can be interpreted by a human architect (Sections 3.2 and 4.6);
// this package exposes exactly the weight statistics that analysis needs.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Sigmoid
	ReLU
	Tanh
	// LeakyReLU is max(x, 0.01*x). Q-value heads use it instead of plain
	// ReLU: with bootstrapped targets, an output neuron whose pre-activation
	// goes negative under plain ReLU receives zero gradient forever (the
	// "dying ReLU" problem) and its Q-value can never recover.
	LeakyReLU
)

// leakySlope is the negative-side slope of LeakyReLU.
const leakySlope = 0.01

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Sigmoid:
		return "sigmoid"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case LeakyReLU:
		return "leaky-relu"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

func (a Activation) apply(z float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-z))
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return math.Tanh(z)
	case LeakyReLU:
		if z < 0 {
			return leakySlope * z
		}
		return z
	}
	return z
}

// derivFromOutput returns f'(z) expressed via the activation output y=f(z).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case LeakyReLU:
		if y > 0 {
			return 1
		}
		return leakySlope
	}
	return 1
}

// Layer is one dense layer: out = act(W*x + b) with W stored row-major
// (W[j*In+i] is the weight from input i to neuron j).
type Layer struct {
	In, Out int
	W       []float64
	B       []float64
	Act     Activation
}

// MLP is a feed-forward multi-layer perceptron trained with SGD. It is not
// safe for concurrent use: Forward and the training methods share scratch
// buffers.
type MLP struct {
	Layers []*Layer

	// scratch: acts[0] is the input copy, acts[l+1] the output of layer l.
	acts   [][]float64
	deltas [][]float64
	// nz[l] lists, ascending, the indices of acts[l]'s nonzero entries as
	// of the last Forward (cap layer l's In); backpropFromActs reuses it.
	nz [][]int32
	// grad is the output-gradient scratch for TrainMSE/TrainAction; it is
	// all-zero between calls so TrainAction only touches one element.
	grad []float64
	// maxWidth is the widest activation plane (input or any layer output),
	// sizing the batched-inference scratch below.
	maxWidth int
	// bacts are the two ping-pong row-major activation planes of
	// ForwardBatch (nb x width each); brows holds the returned row headers.
	bacts [2][]float64
	brows [][]float64
}

// New constructs an MLP with the given layer sizes (len >= 2) and one
// activation per weight layer (len(acts) == len(sizes)-1), Xavier-initialized
// from rng.
func New(sizes []int, acts []Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	if len(acts) != len(sizes)-1 {
		panic("nn: need one activation per layer")
	}
	m := &MLP{}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		if in <= 0 || out <= 0 {
			panic("nn: layer sizes must be positive")
		}
		layer := &Layer{
			In:  in,
			Out: out,
			W:   make([]float64, in*out),
			B:   make([]float64, out),
			Act: acts[l],
		}
		bound := math.Sqrt(6 / float64(in+out))
		for i := range layer.W {
			layer.W[i] = (rng.Float64()*2 - 1) * bound
		}
		m.Layers = append(m.Layers, layer)
	}
	m.allocScratch()
	return m
}

func (m *MLP) allocScratch() {
	m.acts = make([][]float64, len(m.Layers)+1)
	m.deltas = make([][]float64, len(m.Layers))
	m.nz = make([][]int32, len(m.Layers))
	m.acts[0] = make([]float64, m.Layers[0].In)
	m.maxWidth = m.Layers[0].In
	for l, layer := range m.Layers {
		m.acts[l+1] = make([]float64, layer.Out)
		m.deltas[l] = make([]float64, layer.Out)
		m.nz[l] = make([]int32, 0, layer.In)
		if layer.Out > m.maxWidth {
			m.maxWidth = layer.Out
		}
	}
	m.grad = make([]float64, m.OutputSize())
}

// InputSize returns the width of the input layer.
func (m *MLP) InputSize() int { return m.Layers[0].In }

// OutputSize returns the width of the output layer.
func (m *MLP) OutputSize() int { return m.Layers[len(m.Layers)-1].Out }

// NumParams returns the total number of weights and biases.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

// Forward runs inference. The returned slice is an internal buffer, valid
// until the next Forward/training call; copy it to retain it.
//
// Each layer first lists its input's nonzero indices (m.nz). A layer whose
// input is sparse — the agents' state vectors are zero outside the
// candidates' feature blocks — then visits only those inputs; a dense one
// walks whole rows. Either way four neurons are computed at once (see
// forwardSparse), and each neuron still starts from its bias and adds w*x in
// ascending input order, so the result is bit-identical to the plain dense
// loop (and to ForwardBatch) whenever the weights are finite: a skipped
// input is ±0, its product w*x is ±0, and adding ±0 leaves a nonzero partial
// sum unchanged and a +0 one at +0. A partial sum is -0 only while the bias
// is -0 and every term so far was -0; New and SGD never produce a -0 bias,
// and Load rejects non-finite weights.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.Layers[0].In {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.Layers[0].In))
	}
	copy(m.acts[0], x)
	for l, layer := range m.Layers {
		in, out := m.acts[l], m.acts[l+1]
		nz := nonzeros(in, m.nz[l])
		m.nz[l] = nz
		if sparse(len(nz), layer.In) {
			layer.forwardSparse(in, nz, out)
		} else {
			layer.forwardDense(in, out)
		}
	}
	return m.acts[len(m.Layers)]
}

// nonzeros writes the ascending indices of x's nonzero entries (NaN counts
// as nonzero) into idx, which must have capacity len(x), and returns them.
func nonzeros(x []float64, idx []int32) []int32 {
	idx = idx[:0]
	for i, v := range x {
		if v != 0 {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// sparse reports whether a layer input with nnz nonzeros out of in should be
// visited through its index list rather than densely. The index walk pays an
// indirect load and bounds checks per term, so it wins only when it skips
// most of the row.
func sparse(nnz, in int) bool { return nnz < in/2 }

// forwardSparse computes out = act(W*x + b) visiting only the inputs listed
// in nz. Four neurons are in flight at once: each loaded x[i] feeds four
// independent accumulators, where a single neuron would be one dependent
// add chain (latency-bound). Per neuron the order is unchanged: bias first,
// then the listed terms in ascending input order.
func (l *Layer) forwardSparse(x []float64, nz []int32, out []float64) {
	in, act := l.In, l.Act
	j := 0
	for ; j+4 <= l.Out; j += 4 {
		w0 := l.W[(j+0)*in : (j+1)*in]
		w1 := l.W[(j+1)*in : (j+2)*in]
		w2 := l.W[(j+2)*in : (j+3)*in]
		w3 := l.W[(j+3)*in : (j+4)*in]
		z0, z1, z2, z3 := l.B[j], l.B[j+1], l.B[j+2], l.B[j+3]
		for _, i := range nz {
			v := x[i]
			z0 += w0[i] * v
			z1 += w1[i] * v
			z2 += w2[i] * v
			z3 += w3[i] * v
		}
		out[j], out[j+1], out[j+2], out[j+3] = act.apply(z0), act.apply(z1), act.apply(z2), act.apply(z3)
	}
	for ; j < l.Out; j++ { // Out mod 4 trailing neurons
		w := l.W[j*in : (j+1)*in]
		z := l.B[j]
		for _, i := range nz {
			z += w[i] * x[i]
		}
		out[j] = act.apply(z)
	}
}

// forwardDense is forwardSparse walking every input: the same 4-neuron tile
// over whole rows, whose contiguous loads need no index list and no bounds
// checks in the loop.
func (l *Layer) forwardDense(x, out []float64) {
	in, act := l.In, l.Act
	j := 0
	for ; j+4 <= l.Out; j += 4 {
		w0 := l.W[(j+0)*in : (j+1)*in]
		// One bounds check each; elides them in the loop below.
		w1 := l.W[(j+1)*in : (j+2)*in][:len(w0)]
		w2 := l.W[(j+2)*in : (j+3)*in][:len(w0)]
		w3 := l.W[(j+3)*in : (j+4)*in][:len(w0)]
		x := x[:len(w0)]
		z0, z1, z2, z3 := l.B[j], l.B[j+1], l.B[j+2], l.B[j+3]
		for i, w := range w0 {
			v := x[i]
			z0 += w * v
			z1 += w1[i] * v
			z2 += w2[i] * v
			z3 += w3[i] * v
		}
		out[j], out[j+1], out[j+2], out[j+3] = act.apply(z0), act.apply(z1), act.apply(z2), act.apply(z3)
	}
	for ; j < l.Out; j++ { // Out mod 4 trailing neurons
		w := l.W[j*in : (j+1)*in]
		x := x[:len(w)]
		z := l.B[j]
		for i, wi := range w {
			z += wi * x[i]
		}
		out[j] = act.apply(z)
	}
}

// ForwardBatch runs inference on a batch of inputs and returns one Q-row per
// input. Each row is computed with exactly Forward's per-row summation order
// (bias first, then weights in ascending input order), so a batched evaluation
// is bit-identical to len(xs) sequential Forward calls — the blocked kernel
// below only changes *which* dot products are in flight simultaneously, never
// the order of additions within one.
//
// Aliasing contract: the returned row headers and the activations they point
// at live in internal scratch (m.brows/m.bacts) that the NEXT ForwardBatch
// call on this network overwrites. Callers must finish reading (or copy) every
// row of one batch before issuing the next — see rl.DQL.TrainBatch, whose
// SyncEvery-chunked target inference consumes each chunk's rows completely
// before requesting the next chunk. Forward and the training methods use
// separate scratch (m.acts) and do not invalidate batch rows.
func (m *MLP) ForwardBatch(xs [][]float64) [][]float64 {
	return m.forwardBatch(xs, false)
}

// ForwardBatchFast is ForwardBatch running on the AVX2+FMA microkernel when
// the CPU supports it (gemm_amd64.s): four float64 lanes per accumulator and
// fused multiply-adds. Fusing and lane-interleaved partial sums change the
// rounding of each dot product, so rows are NOT bit-identical to Forward —
// they agree to within a few ULPs (pinned by TestForwardBatchFastULP). Use it
// where throughput matters and ULP-exactness does not: rl's batched
// target-network inference rides this path (Bellman targets are estimates;
// ULP noise is far below the TD error they carry). Without CPU support it is
// exactly ForwardBatch. The aliasing contract is ForwardBatch's: rows are
// valid until the next batched call, either flavor.
func (m *MLP) ForwardBatchFast(xs [][]float64) [][]float64 {
	return m.forwardBatch(xs, hasFMAKernel)
}

func (m *MLP) forwardBatch(xs [][]float64, fma bool) [][]float64 {
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	if need := nb * m.maxWidth; cap(m.bacts[0]) < need {
		m.bacts[0] = make([]float64, need)
		m.bacts[1] = make([]float64, need)
	}
	in0 := m.Layers[0].In
	cur := m.bacts[0][:nb*in0]
	for b, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in0))
		}
		copy(cur[b*in0:(b+1)*in0], x)
	}
	src := 0
	for _, layer := range m.Layers {
		prev := m.bacts[src][:nb*layer.In]
		next := m.bacts[1-src][:nb*layer.Out]
		if fma {
			layer.forwardBlockedFMA(prev, next, nb)
		} else {
			layer.forwardBlocked(prev, next, nb)
		}
		src = 1 - src
	}
	outW := m.OutputSize()
	if cap(m.brows) < nb {
		m.brows = make([][]float64, nb)
	}
	rows := m.brows[:nb]
	flat := m.bacts[src]
	for b := range rows {
		rows[b] = flat[b*outW : (b+1)*outW : (b+1)*outW]
	}
	return rows
}

// forwardBlocked computes next = act(prev · Wᵀ + b) for nb row-major rows of
// prev, register-blocked 4 batch rows x 2 neurons. The naive j-outer/b-inner
// formulation runs each (neuron, sample) dot product as one dependent
// float-add chain (latency-bound: one flop per FP-add latency) and re-streams
// the whole nb x in batch plane from L2 once per neuron. The 4x2 tile keeps 8
// independent accumulators in registers, so the inner loop retires 8
// independent multiply-adds per input element while each loaded weight is
// reused across 4 samples and each loaded activation across 2 neurons —
// throughput-bound, and the batch plane is streamed out/2 times instead of
// out times. Every accumulator is initialized to its neuron's bias and then
// adds w[i]*x[i] in ascending i — exactly Forward's summation order — so the
// result is bit-identical to the scalar loop.
func (l *Layer) forwardBlocked(prev, next []float64, nb int) {
	in, out, act := l.In, l.Out, l.Act
	b := 0
	for ; b+4 <= nb; b += 4 {
		x0 := prev[(b+0)*in : (b+1)*in]
		x1 := prev[(b+1)*in : (b+2)*in]
		x2 := prev[(b+2)*in : (b+3)*in]
		x3 := prev[(b+3)*in : (b+4)*in]
		j := 0
		for ; j+2 <= out; j += 2 {
			w0 := l.W[(j+0)*in : (j+1)*in]
			w1 := l.W[(j+1)*in : (j+2)*in]
			// One bounds check each; elides them in the loop below.
			w1 = w1[:len(w0)]
			y0 := x0[:len(w0)]
			y1 := x1[:len(w0)]
			y2 := x2[:len(w0)]
			y3 := x3[:len(w0)]
			b0, b1 := l.B[j], l.B[j+1]
			z00, z01 := b0, b1
			z10, z11 := b0, b1
			z20, z21 := b0, b1
			z30, z31 := b0, b1
			for i, w := range w0 {
				v := w1[i]
				e0, e1, e2, e3 := y0[i], y1[i], y2[i], y3[i]
				z00 += w * e0
				z01 += v * e0
				z10 += w * e1
				z11 += v * e1
				z20 += w * e2
				z21 += v * e2
				z30 += w * e3
				z31 += v * e3
			}
			next[(b+0)*out+j] = act.apply(z00)
			next[(b+0)*out+j+1] = act.apply(z01)
			next[(b+1)*out+j] = act.apply(z10)
			next[(b+1)*out+j+1] = act.apply(z11)
			next[(b+2)*out+j] = act.apply(z20)
			next[(b+2)*out+j+1] = act.apply(z21)
			next[(b+3)*out+j] = act.apply(z30)
			next[(b+3)*out+j+1] = act.apply(z31)
		}
		if j < out { // odd trailing neuron: 4 samples, 1 weight row
			w0 := l.W[j*in : (j+1)*in]
			y0 := x0[:len(w0)]
			y1 := x1[:len(w0)]
			y2 := x2[:len(w0)]
			y3 := x3[:len(w0)]
			bj := l.B[j]
			z0, z1, z2, z3 := bj, bj, bj, bj
			for i, w := range w0 {
				z0 += w * y0[i]
				z1 += w * y1[i]
				z2 += w * y2[i]
				z3 += w * y3[i]
			}
			next[(b+0)*out+j] = act.apply(z0)
			next[(b+1)*out+j] = act.apply(z1)
			next[(b+2)*out+j] = act.apply(z2)
			next[(b+3)*out+j] = act.apply(z3)
		}
	}
	// Trailing samples (nb mod 4): scalar per-row loop, same order as Forward.
	for ; b < nb; b++ {
		x := prev[b*in : (b+1)*in]
		for j := 0; j < out; j++ {
			row := l.W[j*in : (j+1)*in]
			y := x[:len(row)]
			z := l.B[j]
			for i, w := range row {
				z += w * y[i]
			}
			next[b*out+j] = act.apply(z)
		}
	}
}

// forwardBlockedFMA is forwardBlocked with the 4-sample x 2-neuron tile's
// inner loop replaced by the AVX2+FMA assembly microkernel: each accumulator
// becomes four interleaved fused partial sums reduced at the end, which
// trades Forward's exact rounding for ~4x the arithmetic throughput (the
// ForwardBatchFast contract). The bias and the n%4 vector tail are added here
// in scalar code; tile remainders fall back to the scalar paths.
func (l *Layer) forwardBlockedFMA(prev, next []float64, nb int) {
	in, out, act := l.In, l.Out, l.Act
	n4 := in &^ 3
	var sums [8]float64
	b := 0
	for ; b+4 <= nb; b += 4 {
		x0 := prev[(b+0)*in : (b+1)*in]
		x1 := prev[(b+1)*in : (b+2)*in]
		x2 := prev[(b+2)*in : (b+3)*in]
		x3 := prev[(b+3)*in : (b+4)*in]
		j := 0
		for ; j+2 <= out; j += 2 {
			w0 := l.W[(j+0)*in : (j+1)*in]
			w1 := l.W[(j+1)*in : (j+2)*in]
			if n4 > 0 {
				fmaDot4x2(&w0[0], &w1[0], &x0[0], &x1[0], &x2[0], &x3[0], in, &sums)
			} else {
				sums = [8]float64{}
			}
			b0, b1 := l.B[j], l.B[j+1]
			z00, z01 := b0+sums[0], b1+sums[1]
			z10, z11 := b0+sums[2], b1+sums[3]
			z20, z21 := b0+sums[4], b1+sums[5]
			z30, z31 := b0+sums[6], b1+sums[7]
			for i := n4; i < in; i++ {
				w, v := w0[i], w1[i]
				z00 += w * x0[i]
				z01 += v * x0[i]
				z10 += w * x1[i]
				z11 += v * x1[i]
				z20 += w * x2[i]
				z21 += v * x2[i]
				z30 += w * x3[i]
				z31 += v * x3[i]
			}
			next[(b+0)*out+j] = act.apply(z00)
			next[(b+0)*out+j+1] = act.apply(z01)
			next[(b+1)*out+j] = act.apply(z10)
			next[(b+1)*out+j+1] = act.apply(z11)
			next[(b+2)*out+j] = act.apply(z20)
			next[(b+2)*out+j+1] = act.apply(z21)
			next[(b+3)*out+j] = act.apply(z30)
			next[(b+3)*out+j+1] = act.apply(z31)
		}
		if j < out { // odd trailing neuron
			w0 := l.W[j*in : (j+1)*in]
			y0 := x0[:len(w0)]
			y1 := x1[:len(w0)]
			y2 := x2[:len(w0)]
			y3 := x3[:len(w0)]
			bj := l.B[j]
			z0, z1, z2, z3 := bj, bj, bj, bj
			for i, w := range w0 {
				z0 += w * y0[i]
				z1 += w * y1[i]
				z2 += w * y2[i]
				z3 += w * y3[i]
			}
			next[(b+0)*out+j] = act.apply(z0)
			next[(b+1)*out+j] = act.apply(z1)
			next[(b+2)*out+j] = act.apply(z2)
			next[(b+3)*out+j] = act.apply(z3)
		}
	}
	for ; b < nb; b++ { // trailing samples: scalar per-row loop
		x := prev[b*in : (b+1)*in]
		for j := 0; j < out; j++ {
			row := l.W[j*in : (j+1)*in]
			y := x[:len(row)]
			z := l.B[j]
			for i, w := range row {
				z += w * y[i]
			}
			next[b*out+j] = act.apply(z)
		}
	}
}

// Backprop performs one SGD step given dLoss/dOutput evaluated at the current
// forward pass of x. It recomputes the forward pass internally.
func (m *MLP) Backprop(x, outGrad []float64, lr float64) {
	m.Forward(x)
	m.backpropFromActs(outGrad, lr)
}

// backpropFromActs applies one SGD step using the activations left in m.acts
// by the immediately preceding Forward call, avoiding a duplicate forward
// pass. Callers must not have mutated weights since that Forward.
func (m *MLP) backpropFromActs(outGrad []float64, lr float64) {
	y := m.acts[len(m.Layers)]
	last := len(m.Layers) - 1
	outLayer := m.Layers[last]
	for j := range m.deltas[last] {
		m.deltas[last][j] = outGrad[j] * outLayer.Act.derivFromOutput(y[j])
	}
	// Propagate deltas backwards. The accumulation runs k-outer over the
	// next layer's neurons: each delta[j] still sums its terms in ascending
	// k order — bit-identical to the j-outer formulation — but zero deltas
	// (all but one output under Q-learning's single-action gradient) skip
	// their entire weight row, and the rows are walked contiguously.
	for l := last - 1; l >= 0; l-- {
		layer, next := m.Layers[l], m.Layers[l+1]
		outs := m.acts[l+1]
		dl := m.deltas[l][:layer.Out]
		for j := range dl {
			dl[j] = 0
		}
		for k := 0; k < next.Out; k++ {
			d := m.deltas[l+1][k]
			if d == 0 {
				continue
			}
			row := next.W[k*next.In : (k+1)*next.In]
			dl := dl[:len(row)]
			for j, w := range row {
				dl[j] += w * d
			}
		}
		for j := range dl {
			dl[j] *= layer.Act.derivFromOutput(outs[j])
		}
	}
	// Apply gradients. A layer whose input Forward found sparse updates only
	// the weights of its nonzero inputs: for a ±0 input and a finite step
	// the skipped update row[i] -= step*in[i] subtracts ±0, which leaves a
	// nonzero weight unchanged and a +0 one at +0, so the result is
	// bit-identical to the dense update (New and SGD never produce a -0
	// weight).
	for l, layer := range m.Layers {
		in, nz := m.acts[l], m.nz[l]
		useNZ := sparse(len(nz), layer.In)
		for j := 0; j < layer.Out; j++ {
			d := m.deltas[l][j]
			if d == 0 {
				continue
			}
			row := layer.W[j*layer.In : (j+1)*layer.In]
			step := lr * d
			if useNZ {
				for _, i := range nz {
					row[i] -= step * in[i]
				}
			} else {
				in := in[:len(row)]
				for i := range row {
					row[i] -= step * in[i]
				}
			}
			layer.B[j] -= step
		}
	}
}

// TrainMSE performs one SGD step toward target under 0.5*sum((y-t)^2) loss
// and returns the pre-step loss.
func (m *MLP) TrainMSE(x, target []float64, lr float64) float64 {
	y := m.Forward(x)
	if len(target) != len(y) {
		panic("nn: target size mismatch")
	}
	grad := m.grad
	loss := 0.0
	for j := range y {
		e := y[j] - target[j]
		grad[j] = e
		loss += 0.5 * e * e
	}
	m.backpropFromActs(grad, lr)
	for j := range grad {
		grad[j] = 0
	}
	return loss
}

// TrainAction performs one Q-learning SGD step: only the selected action's
// output is pushed toward target; all other outputs receive zero gradient.
// It returns the pre-step squared error on the action.
func (m *MLP) TrainAction(x []float64, action int, target, lr float64) float64 {
	y := m.Forward(x)
	if action < 0 || action >= len(y) {
		panic(fmt.Sprintf("nn: action %d out of range %d", action, len(y)))
	}
	e := y[action] - target
	grad := m.grad
	grad[action] = e
	m.backpropFromActs(grad, lr)
	grad[action] = 0
	return e * e
}

// CopyFrom copies all weights and biases from src, which must have an
// identical architecture. Used to refresh the DQL target network.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: CopyFrom architecture mismatch")
	}
	for l, layer := range m.Layers {
		s := src.Layers[l]
		if layer.In != s.In || layer.Out != s.Out {
			panic("nn: CopyFrom layer shape mismatch")
		}
		copy(layer.W, s.W)
		copy(layer.B, s.B)
	}
}

// Clone returns a deep copy with fresh scratch buffers.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Layer{In: l.In, Out: l.Out, Act: l.Act,
			W: make([]float64, len(l.W)), B: make([]float64, len(l.B))}
		copy(nl.W, l.W)
		copy(nl.B, l.B)
		c.Layers = append(c.Layers, nl)
	}
	c.allocScratch()
	return c
}

// InputWeightAbsMean returns, for each input, the mean absolute first-layer
// weight across all hidden neurons — the quantity visualized in the paper's
// heatmaps (Figs. 4 and 7): darker pixels = larger mean |weight|.
func (m *MLP) InputWeightAbsMean() []float64 {
	l := m.Layers[0]
	out := make([]float64, l.In)
	for j := 0; j < l.Out; j++ {
		row := l.W[j*l.In : (j+1)*l.In]
		for i, w := range row {
			out[i] += math.Abs(w)
		}
	}
	for i := range out {
		out[i] /= float64(l.Out)
	}
	return out
}

// InputWeightSignedMean returns the signed mean first-layer weight per input.
// Section 4.6 uses the sign to discover that hop count is preferred large on
// N/S ports but small on W/E ports.
func (m *MLP) InputWeightSignedMean() []float64 {
	l := m.Layers[0]
	out := make([]float64, l.In)
	for j := 0; j < l.Out; j++ {
		row := l.W[j*l.In : (j+1)*l.In]
		for i, w := range row {
			out[i] += w
		}
	}
	for i := range out {
		out[i] /= float64(l.Out)
	}
	return out
}

// OutputWeightMean returns the mean of all final-layer weights. The paper
// checks that output-layer weights are mostly positive before reading hidden
// weight signs directly (Section 4.6).
func (m *MLP) OutputWeightMean() float64 {
	l := m.Layers[len(m.Layers)-1]
	sum := 0.0
	for _, w := range l.W {
		sum += w
	}
	return sum / float64(len(l.W))
}

// mlpWire is the gob wire format.
type mlpWire struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// Save writes the network weights to w in gob format.
func (m *MLP) Save(w io.Writer) error {
	wire := mlpWire{Sizes: []int{m.Layers[0].In}}
	for _, l := range m.Layers {
		wire.Sizes = append(wire.Sizes, l.Out)
		wire.Acts = append(wire.Acts, l.Act)
		wire.W = append(wire.W, l.W)
		wire.B = append(wire.B, l.B)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a network previously written with Save. It rejects a network
// it could not run as saved: a malformed shape, an unknown activation, or a
// NaN or infinite weight or bias. Everything it allocates is bounded by the
// size of the input: layer widths are taken from the decoded weights, never
// from the recorded sizes alone.
func Load(r io.Reader) (*MLP, error) {
	var wire mlpWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if len(wire.Sizes) < 2 || len(wire.Acts) != len(wire.Sizes)-1 ||
		len(wire.W) != len(wire.Acts) || len(wire.B) != len(wire.Acts) {
		return nil, fmt.Errorf("nn: load: malformed network")
	}
	m := &MLP{}
	for l, act := range wire.Acts {
		in, out := wire.Sizes[l], wire.Sizes[l+1]
		w, b := wire.W[l], wire.B[l]
		// len(w)/out == in rather than in*out == len(w): the product of two
		// recorded sizes can overflow.
		if in <= 0 || out <= 0 || len(b) != out || len(w)%out != 0 || len(w)/out != in {
			return nil, fmt.Errorf("nn: load: layer %d shape mismatch", l)
		}
		if act < Identity || act > LeakyReLU {
			return nil, fmt.Errorf("nn: load: layer %d: unknown activation %v", l, act)
		}
		if i := nonFinite(w); i >= 0 {
			return nil, fmt.Errorf("nn: load: layer %d: weight %d is %v", l, i, w[i])
		}
		if i := nonFinite(b); i >= 0 {
			return nil, fmt.Errorf("nn: load: layer %d: bias %d is %v", l, i, b[i])
		}
		m.Layers = append(m.Layers, &Layer{In: in, Out: out, Act: act, W: w, B: b})
	}
	m.allocScratch()
	return m, nil
}

// nonFinite returns the index of the first NaN or infinite element of v, or
// -1 if there is none.
func nonFinite(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}
