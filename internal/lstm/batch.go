package lstm

import (
	"cmp"
	"math"
	"slices"

	"leakydnn/internal/mat"
	"leakydnn/internal/par"
)

// This file is the network's only compute engine. Training, Predict and
// PredictBatch all run the same batched forward pass; training adds the
// batched BPTT backward pass on top of it. A minibatch's timestep-t state
// lives in batch-major matrices (row s = minibatch slot s), so each timestep
// costs three GEMMs forward and four backward. The engine is generic over
// its arithmetic: float64 (Config.Precision's default, and all inference)
// or float32 (PrecisionFP32 training). The arithmetic is arranged so that
// every output cell accumulates in exactly the order a per-sequence gemv
// network would, which gives three properties the tests pin against the
// per-sequence oracle kept in the test files:
//
//   - At Batch=1 a float64 training step is bit-identical to per-sequence
//     BPTT: the same IEEE operations in the same order, routed through the
//     m=1 GEMM cases. The FP64 golden hashes rest on this.
//   - The forward pass has no cross-sequence reductions (each output row
//     reads only its own input row), so inference returns the same bits at
//     every batch width, width 1 included.
//   - Only the backward weight-gradient accumulation sums across the batch,
//     so Batch>1 training has its own, separately pinned, reduction order.
//
// Slots are ordered by non-increasing sequence length (stable on position,
// so the ordering is deterministic). At timestep t the sequences still
// running are then exactly the slot prefix [0, live), and every GEMM and
// activation loop runs over that prefix only: a batch costs the sum of its
// members' lengths, with no padding arithmetic at all.
//
// FP32 training is a mixed-precision scheme: float32 shadow weights, GEMMs
// and fast activations in the hot loop; gradients widened to float64; clip
// and Adam on the float64 masters; shadows refreshed from the masters. At
// float64 the shadows and gradient accumulators are the masters' own
// buffers, so the same code does no extra copy.

// batchStep holds one timestep's forward intermediates for the whole batch,
// batch-major: element (s, j) of an H-wide quantity is at [s*H+j].
type batchStep[T mat.Float] struct {
	x                       []T // B×In packed inputs
	i, f, g, o, c, h, tanhC []T // B×H each, views into one buffer
	probs                   []T // B×C
}

// weights is the precision-T copy of the parameters the engine reads. The
// forward pass multiplies by the transposes: x·Wᵀ as GemmInto over Wᵀ adds
// the same products in the same ascending order as a dot product against
// W's rows, on the kernel that streams the weight matrix once per call and
// vectorizes over output columns. The backward pass reads wh and wy in the
// masters' orientation.
type weights[T mat.Float] struct {
	wxT, whT, wyT []T // In×4H, H×4H, H×C
	wh, wy, b, by []T // the masters themselves when T is float64
}

func newWeights[T mat.Float](n *Network) *weights[T] {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	w := &weights[T]{
		wxT: make([]T, in*4*h),
		whT: make([]T, h*4*h),
		wyT: make([]T, h*c),
		wh:  shadow[T](n.wh.Data),
		wy:  shadow[T](n.wy.Data),
		b:   shadow[T](n.b),
		by:  shadow[T](n.by),
	}
	w.refresh(n)
	return w
}

// refresh re-derives w from the float64 masters; Train calls it after every
// optimizer step.
func (w *weights[T]) refresh(n *Network) {
	transpose(w.wxT, n.wx.Data, n.wx.Rows, n.wx.Cols)
	transpose(w.whT, n.wh.Data, n.wh.Rows, n.wh.Cols)
	transpose(w.wyT, n.wy.Data, n.wy.Rows, n.wy.Cols)
	if !wide[T]() {
		convert(w.wh, n.wh.Data)
		convert(w.wy, n.wy.Data)
		convert(w.b, n.b)
		convert(w.by, n.by)
	}
}

// forwardState is the reusable state of the batched forward pass for up to
// bcap sequences. Not safe for concurrent use: the trainer owns one, and
// inference draws one per call from Network.forwards.
type forwardState[T mat.Float] struct {
	hidden, inputDim, classes int
	bcap, workers             int

	steps  []*batchStep[T]
	hzero  []T // B×H all-zero h/c state for t=0
	z      []T // B×4H input-side gate pre-activations
	ztmp   []T // B×4H recurrent-side gate pre-activations
	logits []T // B×C
	lens   []int
	inputs [][][]float64 // per-slot input sequences of the current call
}

func newForwardState[T mat.Float](n *Network, bcap int) forwardState[T] {
	h, c := n.cfg.Hidden, n.cfg.Classes
	return forwardState[T]{
		hidden: h, inputDim: n.cfg.InputDim, classes: c,
		bcap: bcap, workers: par.Workers(n.cfg.Workers),
		hzero:  make([]T, bcap*h),
		z:      make([]T, bcap*4*h),
		ztmp:   make([]T, bcap*4*h),
		logits: make([]T, bcap*c),
		lens:   make([]int, bcap),
		inputs: make([][][]float64, bcap),
	}
}

// step returns the t-th reusable step buffer, growing the pool on demand.
func (f *forwardState[T]) step(t int) *batchStep[T] {
	for len(f.steps) <= t {
		b, h := f.bcap, f.hidden
		buf := make([]T, 7*b*h)
		f.steps = append(f.steps, &batchStep[T]{
			x:     make([]T, b*f.inputDim),
			i:     buf[0 : b*h],
			f:     buf[b*h : 2*b*h],
			g:     buf[2*b*h : 3*b*h],
			o:     buf[3*b*h : 4*b*h],
			c:     buf[4*b*h : 5*b*h],
			h:     buf[5*b*h : 6*b*h],
			tanhC: buf[6*b*h : 7*b*h],
			probs: make([]T, b*f.classes),
		})
	}
	return f.steps[t]
}

// forward runs the network under w over inputs (one sequence per slot, at
// most bcap of them, sorted by non-increasing length) and returns the
// longest length. Step buffers 0..len-1 are valid until the state's next
// use; for each timestep only the rows of the then-live slot prefix are
// written, rows beyond it hold stale values nothing may read.
func (f *forwardState[T]) forward(w *weights[T], inputs [][][]float64) int {
	h, in, cls, nw := f.hidden, f.inputDim, f.classes, f.workers
	maxLen := 0
	for s, seq := range inputs {
		f.lens[s] = len(seq)
		maxLen = max(maxLen, len(seq))
	}

	hPrev, cPrev := f.hzero, f.hzero
	live := len(inputs)
	for t := 0; t < maxLen; t++ {
		for live > 0 && f.lens[live-1] <= t {
			live--
		}
		st := f.step(t)
		for s := 0; s < live; s++ {
			convert(st.x[s*in:s*in+in], inputs[s][t])
		}
		mat.GemmInto(f.z[:live*4*h], st.x[:live*in], w.wxT, live, in, 4*h, nw)
		mat.GemmInto(f.ztmp[:live*4*h], hPrev[:live*h], w.whT, live, h, 4*h, nw)
		for s := 0; s < live; s++ {
			zs := f.z[s*4*h : (s+1)*4*h]
			zt := f.ztmp[s*4*h : (s+1)*4*h]
			cp := cPrev[s*h : s*h+h]
			si := st.i[s*h : s*h+h]
			sf := st.f[s*h : s*h+h]
			sg := st.g[s*h : s*h+h]
			so := st.o[s*h : s*h+h]
			sc := st.c[s*h : s*h+h]
			sh := st.h[s*h : s*h+h]
			stc := st.tanhC[s*h : s*h+h]
			// (x-part + h-part) + bias, the per-sequence evaluation order,
			// folded in place so the activations get whole gate rows.
			for j, bv := range w.b {
				zs[j] = zs[j] + zt[j] + bv
			}
			sigmoidInto(si, zs[:h])
			sigmoidInto(sf, zs[h:2*h])
			tanhInto(sg, zs[2*h:3*h])
			sigmoidInto(so, zs[3*h:4*h])
			for j := 0; j < h; j++ {
				sc[j] = sf[j]*cp[j] + si[j]*sg[j]
			}
			tanhInto(stc, sc)
			for j := 0; j < h; j++ {
				sh[j] = so[j] * stc[j]
			}
		}
		mat.GemmInto(f.logits[:live*cls], st.h[:live*h], w.wyT, live, h, cls, nw)
		for s := 0; s < live; s++ {
			lrow := f.logits[s*cls : (s+1)*cls]
			for j, v := range w.by {
				lrow[j] += v
			}
			softmaxInto(st.probs[s*cls:(s+1)*cls], lrow)
		}
		hPrev, cPrev = st.h, st.c
	}
	return maxLen
}

// trainer owns the reusable buffers of one Train call: the forward part it
// shares with inference plus the backward part's deltas and gradient
// accumulators.
type trainer[T mat.Float] struct {
	forwardState[T]
	n *Network
	w *weights[T]

	dz                           []T // B×4H stacked gate deltas
	dh, dc, dcNext, dhNext, htmp []T // B×H
	dLogits                      []T // B×C

	// Gradient accumulators; at float64 they are g's own buffers, at
	// float32 they are widened into g after every minibatch.
	gwx, gwh, gwy, gb, gby []T
	// g is the minibatch gradient the shared clip/Adam path consumes.
	g *grads

	idx []int // length-sorted copy of the current minibatch indices
}

func newTrainer[T mat.Float](n *Network, bcap int) *trainer[T] {
	h, c := n.cfg.Hidden, n.cfg.Classes
	g := n.newGrads()
	return &trainer[T]{
		forwardState: newForwardState[T](n, bcap),
		n:            n,
		w:            newWeights[T](n),
		dz:           make([]T, bcap*4*h),
		dh:           make([]T, bcap*h),
		dc:           make([]T, bcap*h),
		dcNext:       make([]T, bcap*h),
		dhNext:       make([]T, bcap*h),
		htmp:         make([]T, bcap*h),
		dLogits:      make([]T, bcap*c),
		gwx:          shadow[T](g.wx.Data),
		gwh:          shadow[T](g.wh.Data),
		gwy:          shadow[T](g.wy.Data),
		gb:           shadow[T](g.b),
		gby:          shadow[T](g.by),
		g:            g,
		idx:          make([]int, bcap),
	}
}

// train runs the epoch loop of Network.Train.
func (tr *trainer[T]) train(seqs []Sequence, epochs int) []TrainResult {
	n, batch := tr.n, tr.bcap
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	results := make([]TrainResult, 0, epochs)
	for epoch := 0; epoch < epochs; epoch++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var totalLoss float64
		var totalCounted, totalCorrect int
		for start := 0; start < len(order); start += batch {
			loss, counted, correct := tr.minibatch(seqs, order[start:min(start+batch, len(order))])
			totalLoss += loss
			totalCounted += counted
			totalCorrect += correct
			if counted == 0 {
				continue
			}
			n.applyGrads(tr.g, counted)
			tr.w.refresh(n)
		}

		res := TrainResult{Epoch: epoch}
		if totalCounted > 0 {
			res.AvgLoss = totalLoss / float64(totalCounted)
			res.Accuracy = float64(totalCorrect) / float64(totalCounted)
		}
		results = append(results, res)
		n.trainedEpochs++
	}
	return results
}

// minibatch computes the summed gradient of seqs[idx...] into tr.g and
// returns the batch's summed weighted loss, counted timesteps, and correct
// predictions. idx is not mutated; the trainer works on a length-sorted
// copy, so the cross-sequence accumulation order depends only on the
// minibatch's membership and lengths, never on Workers.
func (tr *trainer[T]) minibatch(seqs []Sequence, idx []int) (loss float64, counted, correct int) {
	n := tr.n
	h, in, cls := tr.hidden, tr.inputDim, tr.classes
	bs, nw := len(idx), tr.workers
	sorted := tr.idx[:bs]
	copy(sorted, idx)
	sortByLenDesc(sorted, func(i int) int { return len(seqs[i].Inputs) })
	inputs := tr.inputs[:bs]
	for s, id := range sorted {
		inputs[s] = seqs[id].Inputs
	}
	maxLen := tr.forward(tr.w, inputs)

	clear(tr.gwx)
	clear(tr.gwh)
	clear(tr.gwy)
	clear(tr.gb)
	clear(tr.gby)
	dh, dc, dcNext, dhNext := tr.dh, tr.dc, tr.dcNext, tr.dhNext
	clear(dhNext[:bs*h])
	clear(dcNext[:bs*h])

	live := 0
	for t := maxLen - 1; t >= 0; t-- {
		for live < bs && tr.lens[live] > t {
			live++
		}
		st := tr.steps[t]
		copy(dh[:live*h], dhNext[:live*h])

		// Readout: rows of dLogits are only populated for live slots whose
		// timestep t is counted; the rest stay exactly zero so the rank-live
		// updates below add only ±0 for them. When no slot counts, the whole
		// block is skipped, as per-sequence BPTT skips a masked step.
		dL := tr.dLogits
		clear(dL[:live*cls])
		anyCounted := false
		for s := 0; s < live; s++ {
			seq := seqs[sorted[s]]
			if seq.Mask != nil && !seq.Mask[t] {
				continue
			}
			label := seq.Labels[t]
			wgt := 1.0
			if n.cfg.ClassWeights != nil {
				wgt = n.cfg.ClassWeights[label]
			}
			prow := st.probs[s*cls : (s+1)*cls]
			p := float64(prow[label])
			if p < 1e-12 {
				p = 1e-12
			}
			loss += -wgt * math.Log(p)
			counted++
			if mat.ArgMax(prow) == label {
				correct++
			}
			drow := dL[s*cls : (s+1)*cls]
			copy(drow, prow)
			drow[label]--
			for j := range drow {
				drow[j] *= T(wgt)
			}
			anyCounted = true
		}
		if anyCounted {
			mat.GemmTAAccum(tr.gwy, dL[:live*cls], st.h[:live*h], live, cls, h, nw)
			for s := 0; s < live; s++ {
				for j, v := range dL[s*cls : (s+1)*cls] {
					tr.gby[j] += v
				}
			}
			mat.GemmInto(tr.htmp[:live*h], dL[:live*cls], tr.w.wy, live, cls, h, nw)
			for j, v := range tr.htmp[:live*h] {
				dh[j] += v
			}
		}

		cPrev, hPrev := tr.hzero, tr.hzero
		if t > 0 {
			cPrev, hPrev = tr.steps[t-1].c, tr.steps[t-1].h
		}
		copy(dc[:live*h], dcNext[:live*h])
		for s := 0; s < live; s++ {
			dzs := tr.dz[s*4*h : (s+1)*4*h]
			dhs := dh[s*h : s*h+h]
			dcs := dc[s*h : s*h+h]
			dcn := dcNext[s*h : s*h+h]
			cp := cPrev[s*h : s*h+h]
			si := st.i[s*h : s*h+h]
			sf := st.f[s*h : s*h+h]
			sg := st.g[s*h : s*h+h]
			so := st.o[s*h : s*h+h]
			stc := st.tanhC[s*h : s*h+h]
			// Through h = o*tanh(c); the output-gate delta lands directly
			// in its dz quarter.
			for j := 0; j < h; j++ {
				dzs[3*h+j] = dhs[j] * stc[j] * so[j] * (1 - so[j])
				dcs[j] += dhs[j] * so[j] * (1 - stc[j]*stc[j])
			}
			// Through c = f*cPrev + i*g, filling the remaining quarters.
			for j := 0; j < h; j++ {
				dzs[j] = dcs[j] * sg[j] * si[j] * (1 - si[j])
				dzs[h+j] = dcs[j] * cp[j] * sf[j] * (1 - sf[j])
				dzs[2*h+j] = dcs[j] * si[j] * (1 - sg[j]*sg[j])
				dcn[j] = dcs[j] * sf[j]
			}
		}

		mat.GemmTAAccum(tr.gwx, tr.dz[:live*4*h], st.x[:live*in], live, 4*h, in, nw)
		mat.GemmTAAccum(tr.gwh, tr.dz[:live*4*h], hPrev[:live*h], live, 4*h, h, nw)
		for s := 0; s < live; s++ {
			for j, v := range tr.dz[s*4*h : (s+1)*4*h] {
				tr.gb[j] += v
			}
		}
		mat.GemmInto(dhNext[:live*h], tr.dz[:live*4*h], tr.w.wh, live, 4*h, h, nw)
	}

	if !wide[T]() {
		widen(tr.g.wx.Data, tr.gwx)
		widen(tr.g.wh.Data, tr.gwh)
		widen(tr.g.wy.Data, tr.gwy)
		widen(tr.g.b, tr.gb)
		widen(tr.g.by, tr.gby)
	}
	return loss, counted, correct
}

// predictBatchWidth bounds how many sequences one inference forward pass
// carries; it caps the step-buffer memory at roughly 32 × maxLen × 7H
// floats while keeping the GEMMs wide.
const predictBatchWidth = 32

// infer runs the forward pass over every input sequence, up to
// predictBatchWidth at a time grouped by length, and hands each sequence to
// emit: sequence i's timestep-t probabilities are row slot of steps[t].probs,
// valid until emit returns. The forward state comes from a pool, so
// concurrent calls on a trained network each own their buffers while
// steady-state calls stop allocating them.
func (n *Network) infer(inputs [][][]float64, emit func(i, slot int, steps []*batchStep[float64])) error {
	for _, seq := range inputs {
		if len(seq) == 0 {
			return errEmptySequence
		}
		for t, x := range seq {
			if len(x) != n.cfg.InputDim {
				return fmtInputDimError(t, len(x), n.cfg.InputDim)
			}
		}
	}
	width := min(predictBatchWidth, len(inputs))
	if width == 0 {
		return nil
	}
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	sortByLenDesc(order, func(i int) int { return len(inputs[i]) })

	// Only a state of exactly this width is reused: a wider one would grow
	// its step buffers for slots this call never fills.
	f, ok := n.forwards.Get().(*forwardState[float64])
	if !ok || f.bcap != width {
		fs := newForwardState[float64](n, width)
		f = &fs
	}
	w := n.inferenceWeights()
	for start := 0; start < len(order); start += width {
		chunk := order[start:min(start+width, len(order))]
		for s, i := range chunk {
			f.inputs[s] = inputs[i]
		}
		f.forward(w, f.inputs[:len(chunk)])
		for s, i := range chunk {
			emit(i, s, f.steps)
		}
	}
	clear(f.inputs) // the pool must not pin the caller's inputs
	n.forwards.Put(f)
	return nil
}

// inferenceWeights returns the float64 weights inference reads, deriving
// them on the first call after each weight change (applyGrads drops them).
// Concurrent first callers may each derive an identical copy; any one of
// them serves.
func (n *Network) inferenceWeights() *weights[float64] {
	if w := n.inferW.Load(); w != nil {
		return w
	}
	w := newWeights[float64](n)
	n.inferW.Store(w)
	return w
}

// PredictBatch returns per-timestep argmax class predictions for every input
// sequence. Every sequence gets the same bits it would get alone.
func (n *Network) PredictBatch(inputs [][][]float64) ([][]int, error) {
	cls := n.cfg.Classes
	out := make([][]int, len(inputs))
	err := n.infer(inputs, func(i, slot int, steps []*batchStep[float64]) {
		labels := make([]int, len(inputs[i]))
		for t := range labels {
			labels[t] = mat.ArgMax(steps[t].probs[slot*cls : (slot+1)*cls])
		}
		out[i] = labels
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Predict returns per-timestep argmax class predictions for one sequence.
func (n *Network) Predict(inputs [][]float64) ([]int, error) {
	out, err := n.PredictBatch([][][]float64{inputs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// sortByLenDesc stably sorts idx by non-increasing length.
func sortByLenDesc(idx []int, length func(i int) int) {
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(length(b), length(a)) })
}

// The only precision-specific code: activations, softmax, and moving values
// between precision T and the float64 masters.

// wide reports whether T is float64, whose shadows and gradient accumulators
// are the float64 buffers themselves.
func wide[T mat.Float]() bool {
	_, ok := any(T(0)).(float64)
	return ok
}

// shadow returns master itself when T is float64 and a fresh buffer of the
// same length otherwise.
func shadow[T mat.Float](master []float64) []T {
	if v, ok := any(master).([]T); ok {
		return v
	}
	return make([]T, len(master))
}

func convert[T mat.Float](dst []T, src []float64) {
	for i, v := range src {
		dst[i] = T(v)
	}
}

func widen[T mat.Float](dst []float64, src []T) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// transpose writes dst[c*rows+r] = src[r*cols+c].
func transpose[T mat.Float](dst []T, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = T(v)
		}
	}
}

// sigmoidInto and tanhInto use the kernels bit-identical to math at float64
// and the AVX2-vectorized polynomial kernels at float32.
func sigmoidInto[T mat.Float](dst, src []T) {
	switch d := any(dst).(type) {
	case []float32:
		mat.SigmoidInto32(d, any(src).([]float32))
	case []float64:
		mat.SigmoidInto64(d, any(src).([]float64))
	}
}

func tanhInto[T mat.Float](dst, src []T) {
	switch d := any(dst).(type) {
	case []float32:
		mat.TanhInto32(d, any(src).([]float32))
	case []float64:
		mat.TanhInto64(d, any(src).([]float64))
	}
}

func softmaxInto[T mat.Float](dst, logits []T) {
	switch d := any(dst).(type) {
	case []float32:
		mat.SoftmaxInto32(d, any(logits).([]float32))
	case []float64:
		mat.SoftmaxInto(d, any(logits).([]float64))
	}
}
