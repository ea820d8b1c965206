package lstm

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"leakydnn/internal/mat"
)

// randBatchSeqs builds a deterministic masked dataset with varied lengths so
// the batched path exercises slot padding.
func randBatchSeqs(seed int64, count, inputDim, classes int, masked bool) []Sequence {
	rng := rand.New(rand.NewSource(seed))
	var seqs []Sequence
	for i := 0; i < count; i++ {
		length := 1 + rng.Intn(9)
		in := make([][]float64, length)
		labels := make([]int, length)
		var mask []bool
		if masked {
			mask = make([]bool, length)
		}
		for t := range in {
			v := make([]float64, inputDim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			in[t] = v
			labels[t] = rng.Intn(classes)
			if masked {
				mask[t] = rng.Float64() < 0.75
			}
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	return seqs
}

// The float64 trainer at Batch=1 must reproduce the per-sequence oracle
// backward bit for bit: same loss, same stats, same gradient bits. This is
// the property that lets Train route everything through the GEMM engine
// without moving the FP64 golden hashes.
func TestBatchedRunMatchesBackwardAtBatch1(t *testing.T) {
	n, err := New(Config{
		InputDim: 3, Hidden: 5, Classes: 4, Seed: 77,
		ClassWeights: []float64{1, 1.5, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(31, 8, 3, 4, true)

	bt := newTrainer[float64](n, 1)
	g, s := n.newGrads(), n.newScratch()
	for i := range seqs {
		loss, counted, correct := bt.minibatch(seqs, []int{i})
		g.zero()
		wantLoss, wantCounted, wantCorrect := n.backward(seqs[i], g, s)
		if loss != wantLoss || counted != wantCounted || correct != wantCorrect {
			t.Fatalf("seq %d: batched stats (%v,%d,%d) != sequential (%v,%d,%d)",
				i, loss, counted, correct, wantLoss, wantCounted, wantCorrect)
		}
		cmp := func(name string, got, want []float64) {
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seq %d: %s[%d] = %b, sequential %b", i, name, j, got[j], want[j])
				}
			}
		}
		cmp("wx", bt.g.wx.Data, g.wx.Data)
		cmp("wh", bt.g.wh.Data, g.wh.Data)
		cmp("wy", bt.g.wy.Data, g.wy.Data)
		cmp("b", bt.g.b, g.b)
		cmp("by", bt.g.by, g.by)
	}
}

// The batched backward at Batch>1 must compute the gradient of the summed
// batch loss — checked against central differences. (The cross-sequence
// reduction order differs from reduceGrads, so this is a fresh correctness
// check, not a bit-identity one.)
func TestBatchedGradientMatchesNumeric(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 3, Classes: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(47, 3, 2, 3, false)
	idx := []int{0, 1, 2}
	bt := newTrainer[float64](n, len(idx))

	// The probes below poke the master weights directly, so re-derive the
	// trainer's transposed copies first — exactly what Train does after
	// every optimizer step.
	batchLoss := func() float64 {
		bt.w.refresh(n)
		loss, _, _ := bt.minibatch(seqs, idx)
		return loss
	}
	bt.minibatch(seqs, idx)
	// Copy the analytic gradient out before the probe runs overwrite bt.g.
	analytic := n.newGrads()
	analytic.add(bt.g)

	const eps = 1e-5
	check := func(name string, param, grad []float64) {
		for _, j := range []int{0, len(param) / 2, len(param) - 1} {
			orig := param[j]
			param[j] = orig + eps
			up := batchLoss()
			param[j] = orig - eps
			down := batchLoss()
			param[j] = orig
			numeric := (up - down) / (2 * eps)
			if diff := math.Abs(numeric - grad[j]); diff > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: batched %v vs numeric %v", name, j, grad[j], numeric)
			}
		}
	}
	check("wx", n.wx.Data, analytic.wx.Data)
	check("wh", n.wh.Data, analytic.wh.Data)
	check("wy", n.wy.Data, analytic.wy.Data)
	check("b", n.b, analytic.b)
	check("by", n.by, analytic.by)
}

// The batched forward pass has no cross-sequence reductions, so inference
// must be bit-identical to the per-sequence oracle at every batch width:
// width 1 (Predict's), a partial chunk, and widths above predictBatchWidth,
// exercising the chunking.
func TestPredictProbsBatchBitIdentical(t *testing.T) {
	n, err := New(Config{InputDim: 4, Hidden: 6, Classes: 3, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	// 2*predictBatchWidth+5 sequences: full chunks plus a ragged tail.
	seqs := randBatchSeqs(53, 2*predictBatchWidth+5, 4, 3, false)
	inputs := make([][][]float64, len(seqs))
	for i, s := range seqs {
		inputs[i] = s.Inputs
	}

	wide, err := n.predictProbsBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := n.predictProbsBatch(inputs[:7])
	if err != nil {
		t.Fatal(err)
	}
	labels, err := n.PredictBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range inputs {
		want := n.oracleProbs(seq)
		single, err := n.predictProbs(seq)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := n.Predict(seq)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string][][]float64{"batched": wide[i], "width-1": single}
		if i < len(partial) {
			runs["partial"] = partial[i]
		}
		for name, got := range runs {
			if len(got) != len(want) {
				t.Fatalf("seq %d: %d timesteps %s, %d oracle", i, len(got), name, len(want))
			}
			for ts := range want {
				for j := range want[ts] {
					if math.Float64bits(got[ts][j]) != math.Float64bits(want[ts][j]) {
						t.Fatalf("seq %d t=%d class %d: %s %b != oracle %b",
							i, ts, j, name, got[ts][j], want[ts][j])
					}
				}
			}
		}
		for ts := range want {
			if w := mat.ArgMax(want[ts]); pred[ts] != w || labels[i][ts] != w {
				t.Fatalf("seq %d t=%d: Predict %d, PredictBatch %d, oracle argmax %d",
					i, ts, pred[ts], labels[i][ts], w)
			}
		}
	}

	if _, err := n.PredictBatch([][][]float64{{}}); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := n.PredictBatch([][][]float64{{{1, 2}}}); err == nil {
		t.Fatal("wrong input dim accepted")
	}
}

// Inference draws forward states from a pool and derives its weights
// lazily; concurrent callers must get distinct buffers and identical
// results. The weight cache is dropped before the fan-out so the goroutines
// also race to derive it, and width-1 and full-width calls interleave so
// states of both widths circulate through the pool. Run under -race this
// pins the goroutine-safety the pooling must preserve.
func TestPredictProbsConcurrentPooled(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 8, Classes: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(71, 6, 3, 4, false)
	inputs := make([][][]float64, len(seqs))
	for i, s := range seqs {
		inputs[i] = s.Inputs
	}
	want, err := n.predictProbsBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	n.inferW.Store(nil)

	same := func(got [][]float64, i int) bool {
		for ts := range got {
			for j := range got[ts] {
				if got[ts][j] != want[i][ts][j] {
					return false
				}
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if (w+rep)%2 == 0 {
					all, err := n.predictProbsBatch(inputs)
					if err != nil {
						errs <- err.Error()
						return
					}
					for i := range all {
						if !same(all[i], i) {
							errs <- "concurrent batched inference diverged from serial result"
							return
						}
					}
					continue
				}
				for i, seq := range inputs {
					p, err := n.predictProbs(seq)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !same(p, i) {
						errs <- "concurrent width-1 inference diverged from serial result"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// Inference caches its transposed weights per weight version. Training must
// invalidate them: after Predict warms the cache, one more epoch of Train
// and a second Predict must agree bit for bit with a freshly loaded copy of
// the trained network, which has never cached anything.
func TestPredictAfterTrainMatchesFreshLoad(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 6, Classes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(61, 8, 3, 4, true)
	probe := seqs[0].Inputs
	if _, err := n.Train(seqs, 1); err != nil {
		t.Fatal(err)
	}
	before, err := n.predictProbs(probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(seqs, 1); err != nil {
		t.Fatal(err)
	}
	after, err := n.predictProbs(probe)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.predictProbs(probe)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for ts := range want {
		for j := range want[ts] {
			if math.Float64bits(after[ts][j]) != math.Float64bits(want[ts][j]) {
				t.Fatalf("t=%d class %d: post-training prediction %v, fresh load %v (stale weight cache)",
					ts, j, after[ts][j], want[ts][j])
			}
			changed = changed || before[ts][j] != after[ts][j]
		}
	}
	if !changed {
		t.Fatal("the extra epoch left predictions unchanged; the test cannot see a stale cache")
	}
	wantLabels, err := fresh.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	gotLabels, err := n.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	for ts := range wantLabels {
		if gotLabels[ts] != wantLabels[ts] {
			t.Fatalf("t=%d: Predict %d after training, fresh load %d", ts, gotLabels[ts], wantLabels[ts])
		}
	}
}

// A trained-then-saved network must resume fine-tuning on a shuffle stream
// distinct from the one its original run consumed (the old behavior replayed
// epoch 0's permutations), while staying fully deterministic: two loads of
// the same snapshot train byte-identically.
func TestLoadResumesDistinctShuffleStream(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 4, Classes: 3, Seed: 99}
	seqs := randBatchSeqs(11, 6, 2, 3, false)

	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(seqs, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snapshotBytes := buf.Bytes()

	// Two loads must train to byte-identical networks: resuming is still
	// deterministic.
	finetune := func() []byte {
		ld, err := Load(bytes.NewReader(snapshotBytes))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.Train(seqs, 2); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := ld.Save(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(finetune(), finetune()) {
		t.Fatal("two loads of the same snapshot fine-tuned to different networks")
	}

	// White box: the loaded RNG must not sit at the start of cfg.Seed's
	// stream, or fine-tuning would replay the original run's epoch-0
	// shuffles.
	ld, err := Load(bytes.NewReader(snapshotBytes))
	if err != nil {
		t.Fatal(err)
	}
	if ld.trainedEpochs != 2 {
		t.Fatalf("loaded trainedEpochs = %d, want 2", ld.trainedEpochs)
	}
	fresh := rand.New(rand.NewSource(cfg.Seed))
	same := true
	for i := 0; i < 4; i++ {
		if ld.rng.Int63() != fresh.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("loaded trained network resumed on the epoch-0 shuffle stream")
	}

	// An untrained snapshot keeps the historical behavior: its stream is
	// cfg.Seed's from the top, matching what New would do.
	un, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ubuf bytes.Buffer
	if err := un.Save(&ubuf); err != nil {
		t.Fatal(err)
	}
	uld, err := Load(&ubuf)
	if err != nil {
		t.Fatal(err)
	}
	freshU := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 4; i++ {
		if got, want := uld.rng.Int63(), freshU.Int63(); got != want {
			t.Fatalf("untrained snapshot draw %d: %d, want cfg.Seed stream value %d", i, got, want)
		}
	}
}

// FP32 training must stay deterministic across worker counts (workers only
// partition GEMM output cells there too) and actually learn.
func TestFP32TrainDeterministicAndLearns(t *testing.T) {
	seqs := make([]Sequence, 0, 24)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 24; i++ {
		const length = 8
		in := make([][]float64, length)
		labels := make([]int, length)
		// Label = sign of the previous step's input: solvable only through
		// the recurrent state.
		prev := 0.0
		for t := range in {
			v := rng.NormFloat64()
			in[t] = []float64{v}
			if prev > 0 {
				labels[t] = 1
			}
			prev = v
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels})
	}

	train := func(workers int) (string, float64) {
		n, err := New(Config{
			InputDim: 1, Hidden: 12, Classes: 2, Seed: 5,
			LearningRate: 3e-2, Batch: 4, Workers: workers,
			Precision: PrecisionFP32,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Train(seqs, 30)
		if err != nil {
			t.Fatal(err)
		}
		return hashParams(n), res[len(res)-1].Accuracy
	}
	h1, acc := train(1)
	h4, _ := train(4)
	if h1 != h4 {
		t.Fatalf("FP32 training depends on worker count: %s vs %s", h1, h4)
	}
	if acc < 0.85 {
		t.Fatalf("FP32 training failed to learn the temporal task: accuracy %v", acc)
	}
}
