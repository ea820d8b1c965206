package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSet(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if got.Data[i] != v {
			t.Fatalf("Mul Data[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 0, -1, 2, 2, 2})
	got := MulVec(a, []float64{3, 4, 5})
	want := []float64{-2, 24}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], v)
		}
	}
}

func TestMulVecT(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVecT(a, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], v)
		}
	}
}

// MulVecT must agree with explicitly transposing then multiplying.
func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 6, 1, rng)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MulVecT(a, x)
	tr := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			tr.Set(j, i, a.At(i, j))
		}
	}
	want := MulVec(tr, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := New(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddOuter Data[%d] = %v, want %v", i, m.Data[i], v)
		}
	}
}

func TestClone(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := a.Clone()
	b.Data[2] = 9
	if a.Data[2] != 3 {
		t.Fatalf("Clone aliases original: a.Data[2] = %v", a.Data[2])
	}
}

func TestClipInPlace(t *testing.T) {
	m := FromSlice(1, 4, []float64{-10, -0.5, 0.5, 10})
	m.ClipInPlace(1)
	want := []float64{-1, -0.5, 0.5, 1}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("Clip Data[%d] = %v, want %v", i, m.Data[i], v)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax([]float64{1, 2, 3, 1000})
	var sum float64
	for _, v := range p {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("softmax produced invalid probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if ArgMax(p) != 3 {
		t.Fatalf("softmax argmax = %d, want 3", ArgMax(p))
	}
}

// Property: softmax is invariant to a constant shift of the logits.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		for _, v := range []float64{a, b, c, shift} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return true // skip degenerate random inputs
			}
		}
		p := Softmax([]float64{a, b, c})
		q := Softmax([]float64{a + shift, b + shift, c + shift})
		for i := range p {
			if math.Abs(p[i]-q[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A B) x == A (B x) for random matrices.
func TestMulAssociativityWithVector(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		a := Randn(3, 4, 1, rng)
		b := Randn(4, 5, 1, rng)
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		left := MulVec(Mul(a, b), x)
		right := MulVec(a, MulVec(b, x))
		for i := range left {
			if math.Abs(left[i]-right[i]) > 1e-9 {
				t.Fatalf("trial %d: (AB)x[%d]=%v != A(Bx)[%d]=%v", trial, i, left[i], i, right[i])
			}
		}
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	c := CloneVec(a)
	AddVec(c, b)
	if c[0] != 5 || a[0] != 1 {
		t.Fatalf("AddVec wrong or aliased: c=%v a=%v", c, a)
	}
	ScaleVec(c, 0.5)
	if c[1] != 3.5 {
		t.Fatalf("ScaleVec c[1] = %v, want 3.5", c[1])
	}
}

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(v); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("Mean/Std of empty slice should be 0")
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Fatalf("Sigmoid(100) = %v, want ~1", got)
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := Randn(64, 64, 1, rng)
	n := Randn(64, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(m, n)
	}
}

// The Into/Accum kernels must be bit-identical to their allocating
// counterparts: training determinism depends on the substitution being
// invisible at the FP level, not just approximately equal.
func TestIntoKernelsMatchAllocatingVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := Randn(5, 7, 1, rng)
	x := make([]float64, 7)
	xt := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	xt[2] = 0 // exercise MulVecTInto's zero-skip path

	want := MulVec(a, x)
	got := make([]float64, 5)
	for i := range got {
		got[i] = rng.NormFloat64() // stale content must be overwritten
	}
	MulVecInto(got, a, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	base := make([]float64, 5)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	wantAcc := CloneVec(base)
	AddVec(wantAcc, MulVec(a, x))
	gotAcc := CloneVec(base)
	MulVecAccum(gotAcc, a, x)
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("MulVecAccum[%d] = %v, want %v", i, gotAcc[i], wantAcc[i])
		}
	}

	wantT := MulVecT(a, xt)
	gotT := make([]float64, 7)
	for i := range gotT {
		gotT[i] = rng.NormFloat64()
	}
	MulVecTInto(gotT, a, xt)
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("MulVecTInto[%d] = %v, want %v", i, gotT[i], wantT[i])
		}
	}
}

func TestSoftmaxIntoMatchesSoftmaxAndAliases(t *testing.T) {
	logits := []float64{3, -2, 0.5, 700, -700}
	want := Softmax(logits)
	dst := make([]float64, len(logits))
	SoftmaxInto(dst, logits)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SoftmaxInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Aliased: dst and logits are the same slice.
	buf := CloneVec(logits)
	SoftmaxInto(buf, buf)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("aliased SoftmaxInto[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
	SoftmaxInto(nil, nil) // empty input must be a no-op, not a panic
}

func TestIntoKernelsPanicOnShapeMismatch(t *testing.T) {
	a := New(2, 3)
	for name, fn := range map[string]func(){
		"MulVecInto dst":   func() { MulVecInto(make([]float64, 3), a, make([]float64, 3)) },
		"MulVecInto x":     func() { MulVecInto(make([]float64, 2), a, make([]float64, 2)) },
		"MulVecAccum dst":  func() { MulVecAccum(make([]float64, 3), a, make([]float64, 3)) },
		"MulVecTInto dst":  func() { MulVecTInto(make([]float64, 2), a, make([]float64, 2)) },
		"MulVecTInto x":    func() { MulVecTInto(make([]float64, 3), a, make([]float64, 3)) },
		"SoftmaxInto dims": func() { SoftmaxInto(make([]float64, 2), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch not rejected", name)
				}
			}()
			fn()
		}()
	}
}

// rows*cols overflowing int must panic instead of allocating a wrong-sized
// (wrapped-around) backing slice that would mis-index later.
func TestDimensionOverflowPanics(t *testing.T) {
	huge := math.MaxInt/2 + 1
	for name, fn := range map[string]func(){
		"New":       func() { New(huge, 4) },
		"FromSlice": func() { FromSlice(huge, 4, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with overflowing dimensions did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Degenerate-but-valid shapes must still work.
	if m := New(0, 5); len(m.Data) != 0 {
		t.Errorf("New(0,5) allocated %d elements", len(m.Data))
	}
	if m := New(5, 0); len(m.Data) != 0 {
		t.Errorf("New(5,0) allocated %d elements", len(m.Data))
	}
}
