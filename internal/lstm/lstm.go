// Package lstm implements the Long Short-Term Memory networks MoSConS uses
// as inference models (paper Table III): a single LSTM layer followed by a
// fully-connected layer and a softmax, trained with (optionally
// class-weighted, optionally masked) cross-entropy via full back-propagation
// through time and Adam. Everything is written from scratch on the repo's
// dense-matrix kernel; a numerical gradient check in the test suite pins the
// correctness of the BPTT derivation.
package lstm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"leakydnn/internal/mat"
)

// Config describes a network.
type Config struct {
	// InputDim is the per-timestep feature dimension.
	InputDim int
	// Hidden is the LSTM state size (256 for Mlong/Mop/voting, 128 for Mhp).
	Hidden int
	// Classes is the output alphabet size.
	Classes int

	// LearningRate is Adam's step size (default 1e-2).
	LearningRate float64
	// ClipAbs clamps every gradient entry to ±ClipAbs (default 5).
	ClipAbs float64
	// ClassWeights amplifies the loss of under-represented classes (the
	// paper's weighted softmax/cross-entropy for Mlong). Nil means uniform.
	ClassWeights []float64
	// Seed drives weight initialization and shuffling.
	Seed int64

	// Batch is the minibatch size: the gradients of up to Batch sequences
	// are accumulated into a single Adam step. Partial gradients are reduced
	// in fixed index order, so the trained network never depends on Workers.
	// 0 defaults to 1, which reproduces the historical per-sequence update
	// schedule bit for bit.
	Batch int
	// Workers bounds the worker pool the batched GEMM kernels partition
	// their output cells across. Any value trains a byte-identical network;
	// 1 runs serially, <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// Precision selects the training arithmetic. The default, PrecisionFP64,
	// is bit-identical to the historical trainer at Batch=1 and is what every
	// FP64 golden hash pins. PrecisionFP32 runs forward/backward in float32
	// (float64 Adam masters) — roughly twice the GEMM throughput for a
	// deliberately different, separately-pinned trajectory. Both run the one
	// engine in batch.go; inference always runs it at float64 regardless of
	// this setting.
	Precision Precision
}

// Precision enumerates Config.Precision values.
type Precision int

const (
	// PrecisionFP64 trains in float64 throughout (the default).
	PrecisionFP64 Precision = iota
	// PrecisionFP32 trains forward/backward in float32 with float64 masters.
	PrecisionFP32
)

func (p Precision) String() string {
	switch p {
	case PrecisionFP64:
		return "fp64"
	case PrecisionFP32:
		return "fp32"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

func (c *Config) defaults() error {
	if c.InputDim <= 0 || c.Hidden <= 0 || c.Classes <= 1 {
		return fmt.Errorf("lstm: invalid dims input=%d hidden=%d classes=%d", c.InputDim, c.Hidden, c.Classes)
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-2
	}
	if c.LearningRate < 0 {
		return errors.New("lstm: negative learning rate")
	}
	if c.ClipAbs == 0 {
		c.ClipAbs = 5
	}
	if c.ClassWeights != nil && len(c.ClassWeights) != c.Classes {
		return fmt.Errorf("lstm: %d class weights for %d classes", len(c.ClassWeights), c.Classes)
	}
	if c.Batch < 0 {
		return fmt.Errorf("lstm: negative batch size %d", c.Batch)
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Precision != PrecisionFP64 && c.Precision != PrecisionFP32 {
		return fmt.Errorf("lstm: unknown precision %d", int(c.Precision))
	}
	return nil
}

// Sequence is one training sequence: per-timestep feature vectors, integer
// labels, and an optional mask selecting the timesteps whose loss counts
// (Mop and Mhp ignore the loss of irrelevant samples; the LSTM still
// consumes them to carry context).
type Sequence struct {
	Inputs [][]float64
	Labels []int
	Mask   []bool // nil = all timesteps count
}

// errEmptySequence and fmtInputDimError are shared by training and
// inference validation so both report identical diagnostics.
var errEmptySequence = errors.New("lstm: empty sequence")

func fmtInputDimError(t, got, want int) error {
	return fmt.Errorf("lstm: input %d has dim %d, want %d", t, got, want)
}

func (s Sequence) validate(inputDim, classes int) error {
	if len(s.Inputs) == 0 {
		return errEmptySequence
	}
	if len(s.Labels) != len(s.Inputs) {
		return fmt.Errorf("lstm: %d labels for %d inputs", len(s.Labels), len(s.Inputs))
	}
	if s.Mask != nil && len(s.Mask) != len(s.Inputs) {
		return fmt.Errorf("lstm: %d mask entries for %d inputs", len(s.Mask), len(s.Inputs))
	}
	for t, x := range s.Inputs {
		if len(x) != inputDim {
			return fmtInputDimError(t, len(x), inputDim)
		}
		if s.Labels[t] < 0 || s.Labels[t] >= classes {
			if s.Mask == nil || s.Mask[t] {
				return fmt.Errorf("lstm: label %d at t=%d out of range [0,%d)", s.Labels[t], t, classes)
			}
		}
	}
	return nil
}

// Network is a trained (or trainable) LSTM classifier. Predict and
// PredictBatch are safe for concurrent use on a trained network; Train is
// not (it parallelizes internally instead, see Config.Workers).
type Network struct {
	cfg Config
	rng *rand.Rand

	// Gate parameters, stacked [input; forget; cell; output] along rows.
	wx *mat.Matrix // (4H, In)
	wh *mat.Matrix // (4H, H)
	b  []float64   // 4H

	// Readout.
	wy *mat.Matrix // (C, H)
	by []float64   // C

	adam *adamState

	// trainedEpochs counts completed Train epochs; serialization records it
	// so a loaded network resumes on a shuffle stream distinct from the one
	// already consumed instead of replaying epoch 0's permutations.
	trainedEpochs int64

	// inferW caches the transposed weights inference reads, derived once per
	// weight version; applyGrads drops it whenever the masters change.
	inferW atomic.Pointer[weights[float64]]
	// forwards recycles inference forward states across calls. Each Get
	// hands out a distinct state, so concurrent prediction stays safe while
	// steady-state calls stop allocating step buffers.
	forwards sync.Pool
}

// New builds a network with Xavier-style initialization.
func New(cfg Config) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	n := &Network{
		cfg: cfg,
		rng: rng,
		wx:  mat.Randn(4*h, in, 1/math.Sqrt(float64(in)), rng),
		wh:  mat.Randn(4*h, h, 1/math.Sqrt(float64(h)), rng),
		b:   make([]float64, 4*h),
		wy:  mat.Randn(c, h, 1/math.Sqrt(float64(h)), rng),
		by:  make([]float64, c),
	}
	// Positive forget-gate bias: the standard trick for remembering long
	// spans (the voting models rely on it).
	for j := h; j < 2*h; j++ {
		n.b[j] = 1
	}
	n.adam = newAdamState(n)
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// grads mirrors the parameter set.
type grads struct {
	wx, wh, wy *mat.Matrix
	b, by      []float64
}

func (n *Network) newGrads() *grads {
	return &grads{
		wx: mat.New(n.wx.Rows, n.wx.Cols),
		wh: mat.New(n.wh.Rows, n.wh.Cols),
		wy: mat.New(n.wy.Rows, n.wy.Cols),
		b:  make([]float64, len(n.b)),
		by: make([]float64, len(n.by)),
	}
}

// TrainResult reports one epoch of training.
type TrainResult struct {
	Epoch    int
	AvgLoss  float64
	Accuracy float64 // masked training accuracy
}

// Train runs the given number of epochs of minibatch Adam updates over the
// training set (shuffled each epoch) and returns per-epoch stats. Every
// minibatch runs through the batched engine (batch.go) at the configured
// precision. At the default Batch of 1 with PrecisionFP64 this reproduces the
// per-sequence update schedule bit for bit: the batched kernels accumulate
// every output cell in exactly the order per-sequence BPTT does. Larger
// batches accumulate the members' gradients in one rank-B GEMM update before
// a shared Adam step, a cross-sequence reduction order of their own, so
// Batch>1 runs are deterministic and worker-independent but not
// bit-comparable to Batch=1 runs. Config.Workers only partitions GEMM output
// cells, never a reduction, so any worker count trains a byte-identical
// network.
//
// The reported stats are the masked accuracy and loss of the forward passes
// the backward pass performs anyway — predictions under the weights in
// effect when each minibatch was visited — so monitoring costs no second
// pass over the training set.
func (n *Network) Train(seqs []Sequence, epochs int) ([]TrainResult, error) {
	if len(seqs) == 0 {
		return nil, errors.New("lstm: no training sequences")
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("lstm: epochs must be positive, got %d", epochs)
	}
	for i, s := range seqs {
		if err := s.validate(n.cfg.InputDim, n.cfg.Classes); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
	}
	batch := min(n.cfg.Batch, len(seqs))
	if n.cfg.Precision == PrecisionFP32 {
		return newTrainer[float32](n, batch).train(seqs, epochs), nil
	}
	return newTrainer[float64](n, batch).train(seqs, epochs), nil
}

// applyGrads performs the shared post-minibatch update: average the summed
// gradient over the counted timesteps, clip, and take one Adam step.
func (n *Network) applyGrads(g *grads, batchCounted int) {
	scale := 1 / float64(batchCounted)
	g.wx.Scale(scale)
	g.wh.Scale(scale)
	g.wy.Scale(scale)
	mat.ScaleVec(g.b, scale)
	mat.ScaleVec(g.by, scale)
	n.clip(g)
	n.adam.step(n, g)
	n.inferW.Store(nil)
}

func (n *Network) clip(g *grads) {
	lim := n.cfg.ClipAbs
	g.wx.ClipInPlace(lim)
	g.wh.ClipInPlace(lim)
	g.wy.ClipInPlace(lim)
	clipVec(g.b, lim)
	clipVec(g.by, lim)
}

func clipVec(v []float64, lim float64) {
	for i, x := range v {
		if x > lim {
			v[i] = lim
		} else if x < -lim {
			v[i] = -lim
		}
	}
}
