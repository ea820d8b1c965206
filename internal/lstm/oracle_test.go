package lstm

import (
	"math"

	"leakydnn/internal/mat"
)

// This file keeps the per-sequence reference network: a gemv forward pass
// and BPTT backward pass over one sequence at a time, reading the float64
// masters directly. Production runs only the batched engine (batch.go);
// these are the oracles it is checked against — the numerical gradient
// checks pin the BPTT derivation here, and the bit-identity tests pin the
// engine to this code at Batch=1 and at every inference width.

// zero resets every gradient buffer in place.
func (g *grads) zero() {
	g.wx.Zero()
	g.wh.Zero()
	g.wy.Zero()
	clear(g.b)
	clear(g.by)
}

// add accumulates o into g.
func (g *grads) add(o *grads) {
	g.wx.Add(o.wx)
	g.wh.Add(o.wh)
	g.wy.Add(o.wy)
	mat.AddVec(g.b, o.b)
	mat.AddVec(g.by, o.by)
}

// reduceGrads sums the partial gradients into dst in slice order. The
// summation order is fixed — index 0 first, then 1, and so on — because
// floating-point addition is not associative.
func reduceGrads(dst *grads, partials []*grads) {
	dst.zero()
	for _, p := range partials {
		dst.add(p)
	}
}

// stepCache holds one timestep's forward intermediates for BPTT.
type stepCache struct {
	x            []float64
	i, f, g, o   []float64
	c, h, tanhC  []float64
	probs        []float64
	hPrev, cPrev []float64
}

// scratch holds the reusable forward/backward buffers of one oracle pass.
type scratch struct {
	hidden, classes int
	steps           []*stepCache
	zero            []float64 // read-only all-zero h/c state for t=0
	z               []float64 // 4H gate pre-activations
	logits          []float64 // C readout logits
	dh, dc, hTmp    []float64 // H-sized backward temporaries
	dhNext, dcNext  []float64
	dz              []float64 // 4H stacked gate deltas
	dLogits         []float64 // C softmax/cross-entropy delta
}

func (n *Network) newScratch() *scratch {
	h, c := n.cfg.Hidden, n.cfg.Classes
	return &scratch{
		hidden: h, classes: c,
		zero:    make([]float64, h),
		z:       make([]float64, 4*h),
		logits:  make([]float64, c),
		dh:      make([]float64, h),
		dc:      make([]float64, h),
		hTmp:    make([]float64, h),
		dhNext:  make([]float64, h),
		dcNext:  make([]float64, h),
		dz:      make([]float64, 4*h),
		dLogits: make([]float64, c),
	}
}

// step returns the t-th reusable step cache, growing the pool on demand.
func (s *scratch) step(t int) *stepCache {
	for len(s.steps) <= t {
		h := s.hidden
		buf := make([]float64, 7*h)
		s.steps = append(s.steps, &stepCache{
			i: buf[0:h], f: buf[h : 2*h], g: buf[2*h : 3*h], o: buf[3*h : 4*h],
			c: buf[4*h : 5*h], h: buf[5*h : 6*h], tanhC: buf[6*h : 7*h],
			probs: make([]float64, s.classes),
		})
	}
	return s.steps[t]
}

// forward runs the network over one sequence into s, returning per-step
// caches valid until the scratch's next use.
func (n *Network) forward(inputs [][]float64, s *scratch) []*stepCache {
	h := n.cfg.Hidden
	hPrev, cPrev := s.zero, s.zero

	for t, x := range inputs {
		sc := s.step(t)
		sc.x, sc.hPrev, sc.cPrev = x, hPrev, cPrev
		z := s.z
		mat.MulVecInto(z, n.wx, x)
		mat.MulVecAccum(z, n.wh, hPrev)
		mat.AddVec(z, n.b)

		for j := 0; j < h; j++ {
			sc.i[j] = mat.Sigmoid(z[j])
			sc.f[j] = mat.Sigmoid(z[h+j])
			sc.g[j] = math.Tanh(z[2*h+j])
			sc.o[j] = mat.Sigmoid(z[3*h+j])
			sc.c[j] = sc.f[j]*cPrev[j] + sc.i[j]*sc.g[j]
			sc.tanhC[j] = math.Tanh(sc.c[j])
			sc.h[j] = sc.o[j] * sc.tanhC[j]
		}
		mat.MulVecInto(s.logits, n.wy, sc.h)
		mat.AddVec(s.logits, n.by)
		mat.SoftmaxInto(sc.probs, s.logits)

		hPrev, cPrev = sc.h, sc.c
	}
	return s.steps[:len(inputs)]
}

// oracleProbs returns the oracle's per-timestep class probabilities.
func (n *Network) oracleProbs(inputs [][]float64) [][]float64 {
	caches := n.forward(inputs, n.newScratch())
	out := make([][]float64, len(caches))
	for t, sc := range caches {
		out[t] = mat.CloneVec(sc.probs)
	}
	return out
}

// backward accumulates gradients for one sequence into g, using s for every
// intermediate buffer. It returns the sequence's summed weighted
// cross-entropy loss, the number of counted timesteps, and how many of them
// the forward pass classified correctly.
func (n *Network) backward(seq Sequence, g *grads, s *scratch) (loss float64, counted, correct int) {
	caches := n.forward(seq.Inputs, s)
	h := n.cfg.Hidden

	dhNext, dcNext := s.dhNext, s.dcNext
	clear(dhNext)
	clear(dcNext)

	for t := len(caches) - 1; t >= 0; t-- {
		sc := caches[t]
		dh := s.dh
		copy(dh, dhNext)

		if seq.Mask == nil || seq.Mask[t] {
			label := seq.Labels[t]
			w := 1.0
			if n.cfg.ClassWeights != nil {
				w = n.cfg.ClassWeights[label]
			}
			p := sc.probs[label]
			if p < 1e-12 {
				p = 1e-12
			}
			loss += -w * math.Log(p)
			counted++
			if mat.ArgMax(sc.probs) == label {
				correct++
			}

			dLogits := s.dLogits
			copy(dLogits, sc.probs)
			dLogits[label] -= 1
			mat.ScaleVec(dLogits, w)

			g.wy.AddOuter(dLogits, sc.h)
			mat.AddVec(g.by, dLogits)
			mat.MulVecTInto(s.hTmp, n.wy, dLogits)
			mat.AddVec(dh, s.hTmp)
		}

		// Through h = o * tanh(c); the output-gate delta lands directly in
		// its dz quarter.
		dz := s.dz
		dc := s.dc
		copy(dc, dcNext)
		for j := 0; j < h; j++ {
			dz[3*h+j] = dh[j] * sc.tanhC[j] * sc.o[j] * (1 - sc.o[j])
			dc[j] += dh[j] * sc.o[j] * (1 - sc.tanhC[j]*sc.tanhC[j])
		}

		// Through c = f*cPrev + i*g, filling the input/forget/cell quarters.
		for j := 0; j < h; j++ {
			dz[j] = dc[j] * sc.g[j] * sc.i[j] * (1 - sc.i[j])
			dz[h+j] = dc[j] * sc.cPrev[j] * sc.f[j] * (1 - sc.f[j])
			dz[2*h+j] = dc[j] * sc.i[j] * (1 - sc.g[j]*sc.g[j])
			dcNext[j] = dc[j] * sc.f[j]
		}

		g.wx.AddOuter(dz, sc.x)
		g.wh.AddOuter(dz, sc.hPrev)
		mat.AddVec(g.b, dz)
		mat.MulVecTInto(dhNext, n.wh, dz)
	}
	return loss, counted, correct
}

// predictProbsBatch returns per-timestep class probabilities for every
// input sequence through the production inference path, for tests that
// compare probabilities rather than argmax labels.
func (n *Network) predictProbsBatch(inputs [][][]float64) ([][][]float64, error) {
	cls := n.cfg.Classes
	out := make([][][]float64, len(inputs))
	err := n.infer(inputs, func(i, slot int, steps []*batchStep[float64]) {
		probs := make([][]float64, len(inputs[i]))
		for t := range probs {
			probs[t] = mat.CloneVec(steps[t].probs[slot*cls : (slot+1)*cls])
		}
		out[i] = probs
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// predictProbs is predictProbsBatch for one sequence.
func (n *Network) predictProbs(inputs [][]float64) ([][]float64, error) {
	out, err := n.predictProbsBatch([][][]float64{inputs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
