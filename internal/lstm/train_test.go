package lstm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"leakydnn/internal/mat"
)

// gradsWithScalar builds a minimal gradient set whose b[0] carries v, for
// exercising the reduction arithmetic in isolation.
func gradsWithScalar(n *Network, v float64) *grads {
	g := n.newGrads()
	g.b[0] = v
	return g
}

// reduceGrads must fold the partials in index order, 0 first. The values are
// chosen so the order is observable: 1 is absorbed when it is added before
// 1e16 but survives when added after the large terms cancel.
func TestReduceGradsFixedOrder(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 2, Classes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		values []float64
	}{
		{"absorbed", []float64{1, 1e16, -1e16}}, // ((0+1)+1e16)-1e16 = 0
		{"survives", []float64{1e16, -1e16, 1}}, // ((0+1e16)-1e16)+1 = 1
		{"empty", nil},
		{"single", []float64{3.5}},
	}
	results := make(map[string]float64)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			partials := make([]*grads, len(tt.values))
			for i, v := range tt.values {
				partials[i] = gradsWithScalar(n, v)
			}
			dst := gradsWithScalar(n, 999) // stale content must be cleared
			reduceGrads(dst, partials)

			var want float64
			for _, v := range tt.values {
				want += v
			}
			if dst.b[0] != want {
				t.Fatalf("reduced b[0] = %v, want index-order fold %v", dst.b[0], want)
			}
			results[tt.name] = dst.b[0]
		})
	}
	// The two permutations of the same multiset must disagree — that is the
	// whole reason the reduction order is pinned.
	if results["absorbed"] == results["survives"] {
		t.Fatalf("permuted partials reduced identically (%v); order-sensitivity fixture is broken",
			results["absorbed"])
	}
}

// The reduced minibatch gradient must match the numeric gradient of the
// summed loss — i.e. accumulating per-sequence backward passes really
// computes the gradient of the batch objective.
func TestMinibatchGradientMatchesNumeric(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 3, Classes: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	mkSeq := func(length int) Sequence {
		in := make([][]float64, length)
		labels := make([]int, length)
		for t2 := range in {
			in[t2] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			labels[t2] = rng.Intn(3)
		}
		return Sequence{Inputs: in, Labels: labels}
	}
	batch := []Sequence{mkSeq(3), mkSeq(5), mkSeq(4)}

	batchLoss := func() float64 {
		var sum float64
		g, s := n.newGrads(), n.newScratch()
		for _, seq := range batch {
			g.zero()
			loss, _, _ := n.backward(seq, g, s)
			sum += loss
		}
		return sum
	}

	partials := make([]*grads, len(batch))
	s := n.newScratch()
	for i, seq := range batch {
		partials[i] = n.newGrads()
		n.backward(seq, partials[i], s)
	}
	total := n.newGrads()
	reduceGrads(total, partials)

	const eps = 1e-5
	check := func(name string, param, grad []float64) {
		for _, idx := range []int{0, len(param) / 2, len(param) - 1} {
			orig := param[idx]
			param[idx] = orig + eps
			up := batchLoss()
			param[idx] = orig - eps
			down := batchLoss()
			param[idx] = orig
			numeric := (up - down) / (2 * eps)
			if diff := math.Abs(numeric - grad[idx]); diff > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: reduced %v vs numeric %v", name, idx, grad[idx], numeric)
			}
		}
	}
	check("wx", n.wx.Data, total.wx.Data)
	check("wh", n.wh.Data, total.wh.Data)
	check("wy", n.wy.Data, total.wy.Data)
	check("b", n.b, total.b)
	check("by", n.by, total.by)
}

// The load-bearing guarantee of the worker pool: any Workers value trains a
// byte-identical network and reports identical epoch stats.
func TestTrainDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var seqs []Sequence
	for i := 0; i < 10; i++ {
		length := 4 + rng.Intn(5)
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		for t2 := range in {
			in[t2] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			labels[t2] = rng.Intn(3)
			mask[t2] = rng.Float64() < 0.8
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}

	train := func(workers int) ([]byte, []TrainResult) {
		n, err := New(Config{InputDim: 2, Hidden: 6, Classes: 3, Seed: 29, Batch: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		results, err := n.Train(seqs, 5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), results
	}

	refBytes, refResults := train(1)
	for _, workers := range []int{2, 4, 0} {
		gotBytes, gotResults := train(workers)
		if !bytes.Equal(refBytes, gotBytes) {
			t.Errorf("Workers=%d trained a different network than Workers=1", workers)
		}
		if !reflect.DeepEqual(refResults, gotResults) {
			t.Errorf("Workers=%d epoch stats differ: %+v vs %+v", workers, gotResults, refResults)
		}
	}
}

// The epoch stats Train reports must be the masked accuracy and loss of the
// forward passes under the weights in effect when each sequence was visited —
// i.e. dropping the separate post-epoch Predict sweep changed the cost of
// monitoring, not its meaning.
func TestEpochStatsMatchPreUpdatePredictions(t *testing.T) {
	cfg := Config{InputDim: 1, Hidden: 5, Classes: 2, Seed: 31}
	rng := rand.New(rand.NewSource(37))
	var seqs []Sequence
	for i := 0; i < 8; i++ {
		length := 5
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		for t2 := range in {
			v := rng.NormFloat64()
			in[t2] = []float64{v}
			if v > 0 {
				labels[t2] = 1
			}
			mask[t2] = t2%3 != 2
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	const epochs = 3

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.Train(seqs, epochs)
	if err != nil {
		t.Fatal(err)
	}

	// Twin replay: same seed, so the shuffle stream is identical. Before each
	// (Batch=1) update, predict with the current weights and tally the same
	// masked stats by hand, then apply the exact update Train performs.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	g, s := b.newGrads(), b.newScratch()
	for epoch := 0; epoch < epochs; epoch++ {
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var wantLoss float64
		var wantCounted, wantCorrect int
		for _, idx := range order {
			seq := seqs[idx]
			probs, err := b.predictProbs(seq.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			for t2 := range probs {
				if seq.Mask != nil && !seq.Mask[t2] {
					continue
				}
				label := seq.Labels[t2]
				wantCounted++
				if mat.ArgMax(probs[t2]) == label {
					wantCorrect++
				}
				p := probs[t2][label]
				if p < 1e-12 {
					p = 1e-12
				}
				wantLoss += -math.Log(p)
			}

			g.zero()
			_, counted, _ := b.backward(seq, g, s)
			if counted == 0 {
				continue
			}
			b.applyGrads(g, counted)
		}
		res := results[epoch]
		if wantAcc := float64(wantCorrect) / float64(wantCounted); res.Accuracy != wantAcc {
			t.Errorf("epoch %d: reported accuracy %v, pre-update predictions give %v", epoch, res.Accuracy, wantAcc)
		}
		wantAvg := wantLoss / float64(wantCounted)
		if math.Abs(res.AvgLoss-wantAvg) > 1e-9*(1+math.Abs(wantAvg)) {
			t.Errorf("epoch %d: reported avg loss %v, pre-update predictions give %v", epoch, res.AvgLoss, wantAvg)
		}
	}

	// The replay must have been faithful, or the comparison above is vacuous.
	// Compare raw parameters rather than Save bytes: Train counts its epochs
	// into the snapshot's TrainedEpochs field, which the manual replay
	// deliberately bypasses.
	if !paramsEqual(a, b) {
		t.Fatal("twin replay diverged from Train; stat comparison is not trustworthy")
	}
}

// paramsEqual reports whether two networks hold bitwise-identical parameters.
func paramsEqual(a, b *Network) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.wx.Data, b.wx.Data) && eq(a.wh.Data, b.wh.Data) &&
		eq(a.wy.Data, b.wy.Data) && eq(a.b, b.b) && eq(a.by, b.by)
}

// Minibatch training (averaged gradients, fewer optimizer steps) must still
// solve the temporal task — batching may change the trajectory but not the
// ability to learn.
func TestMinibatchLearnsTemporalDependency(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 12, Classes: 2, Seed: 5, LearningRate: 3e-2, Batch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var train []Sequence
	for i := 0; i < 60; i++ {
		length := 12
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		prevPos := false
		for t2 := 0; t2 < length; t2++ {
			v := rng.NormFloat64()
			in[t2] = []float64{v}
			if prevPos {
				labels[t2] = 1
			}
			mask[t2] = t2 > 0
			prevPos = v > 0
		}
		train = append(train, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	results, err := n.Train(train, 20)
	if err != nil {
		t.Fatal(err)
	}
	if final := results[len(results)-1]; final.Accuracy < 0.9 {
		t.Fatalf("minibatch temporal accuracy = %.3f, want >= 0.9", final.Accuracy)
	}
}

// A batch larger than the training set must clamp, not crash or stall.
func TestBatchLargerThanDataset(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 4, Classes: 2, Seed: 3, Batch: 64, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqs := []Sequence{
		{Inputs: [][]float64{{1}, {-1}}, Labels: []int{1, 0}},
		{Inputs: [][]float64{{-2}, {2}}, Labels: []int{0, 1}},
	}
	if _, err := n.Train(seqs, 2); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeBatchRejected(t *testing.T) {
	if _, err := New(Config{InputDim: 1, Hidden: 2, Classes: 2, Batch: -1}); err == nil {
		t.Fatal("negative batch size accepted")
	}
}
