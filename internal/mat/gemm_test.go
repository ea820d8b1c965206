package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// naiveGemm computes dst = a·b the obvious way in the documented per-cell
// order (ascending k), as the reference for every kernel.
func naiveGemm(a, b []float64, m, k, n int) []float64 {
	dst := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] = sum
		}
	}
	return dst
}

func transpose(a []float64, rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

// The three kernels must agree with the naive product on awkward shapes
// (unroll remainders, k spanning multiple panels) to within rounding; cells
// are individually order-compatible so GemmInto and GemmTAAccum are exact,
// GemmTB is exact too (register vs memory accumulation of the same sequence
// of IEEE operations is identical).
func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 7, 3}, {3, 5, 1}, {4, 300, 9}, {5, 4, 6}, {2, 600, 5}, {7, 13, 11},
	}
	for _, sh := range shapes {
		a := randSlice(sh.m*sh.k, rng)
		b := randSlice(sh.k*sh.n, rng)
		want := naiveGemm(a, b, sh.m, sh.k, sh.n)

		dst := randSlice(sh.m*sh.n, rng) // stale content must be overwritten
		GemmInto(dst, a, b, sh.m, sh.k, sh.n, 1)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("GemmInto %dx%dx%d: cell %d = %v, want %v", sh.m, sh.k, sh.n, i, dst[i], want[i])
			}
		}

		bt := transpose(b, sh.k, sh.n) // n×k
		dst2 := randSlice(sh.m*sh.n, rng)
		GemmTB(dst2, a, bt, sh.m, sh.k, sh.n, 1)
		for i := range want {
			if dst2[i] != want[i] {
				t.Fatalf("GemmTB %dx%dx%d: cell %d = %v, want %v", sh.m, sh.k, sh.n, i, dst2[i], want[i])
			}
		}

		at := transpose(a, sh.m, sh.k) // k×m
		dst3 := make([]float64, sh.m*sh.n)
		base := randSlice(sh.m*sh.n, rng)
		copy(dst3, base)
		GemmTAAccum(dst3, at, b, sh.k, sh.m, sh.n, 1)
		// GemmTAAccum adds products one at a time in ascending p order;
		// replicate that exactly.
		ref := make([]float64, sh.m*sh.n)
		copy(ref, base)
		for p := 0; p < sh.k; p++ {
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					ref[i*sh.n+j] += at[p*sh.m+i] * b[p*sh.n+j]
				}
			}
		}
		for i := range ref {
			if dst3[i] != ref[i] {
				t.Fatalf("GemmTAAccum %dx%dx%d: cell %d = %v, want %v", sh.m, sh.k, sh.n, i, dst3[i], ref[i])
			}
		}
	}
}

// m=1 GemmTB is the batched forward's replacement for MulVecInto, p=1
// GemmTAAccum replaces AddOuter, and single-row GemmInto replaces
// MulVecTInto — each must be bit-identical, or Batch=1 training drifts from
// the golden hashes.
func TestGemmBitIdenticalToGemvKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, n = 37, 23

	w := FromSlice(n, k, randSlice(n*k, rng)) // weight-style matrix
	x := randSlice(k, rng)

	want := MulVec(w, x)
	got := make([]float64, n)
	GemmTB(got, x, w.Data, 1, k, n, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GemmTB m=1 cell %d = %b, MulVec gives %b", i, got[i], want[i])
		}
	}

	wv := FromSlice(k, n, randSlice(k*n, rng))
	xv := randSlice(k, rng)
	wantT := make([]float64, n)
	MulVecTInto(wantT, wv, xv)
	gotT := make([]float64, n)
	GemmInto(gotT, xv, wv.Data, 1, k, n, 1)
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("GemmInto m=1 cell %d = %b, MulVecTInto gives %b", i, gotT[i], wantT[i])
		}
	}

	u, v := randSlice(n, rng), randSlice(k, rng)
	mref := FromSlice(n, k, randSlice(n*k, rng))
	mgot := mref.Clone()
	mref.AddOuter(u, v)
	GemmTAAccum(mgot.Data, u, v, 1, n, k, 1)
	for i := range mref.Data {
		if mgot.Data[i] != mref.Data[i] {
			t.Fatalf("GemmTAAccum p=1 cell %d = %b, AddOuter gives %b", i, mgot.Data[i], mref.Data[i])
		}
	}
}

// Worker-count determinism: partitioning only assigns cells to workers, so
// any worker count must produce byte-identical output. Shapes are sized
// above gemmParallelMin so the parallel path actually engages.
func TestGemmWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 64, 48, 64 // 196k mul-adds > gemmParallelMin
	a := randSlice(m*k, rng)
	b := randSlice(k*n, rng)
	bt := transpose(b, k, n)
	c := randSlice(m*n, rng) // m rows, for the aᵀ·c rank-m update

	refInto := make([]float64, m*n)
	GemmInto(refInto, a, b, m, k, n, 1)
	refTB := make([]float64, m*n)
	GemmTB(refTB, a, bt, m, k, n, 1)
	refTA := make([]float64, k*n)
	GemmTAAccum(refTA, a, c, m, k, n, 1)

	for _, workers := range []int{2, 3, 4, 7} {
		got := make([]float64, m*n)
		GemmInto(got, a, b, m, k, n, workers)
		for i := range refInto {
			if got[i] != refInto[i] {
				t.Fatalf("GemmInto workers=%d cell %d differs", workers, i)
			}
		}
		got2 := make([]float64, m*n)
		GemmTB(got2, a, bt, m, k, n, workers)
		for i := range refTB {
			if got2[i] != refTB[i] {
				t.Fatalf("GemmTB workers=%d cell %d differs", workers, i)
			}
		}
		got3 := make([]float64, k*n)
		GemmTAAccum(got3, a, c, m, k, n, workers)
		for i := range refTA {
			if got3[i] != refTA[i] {
				t.Fatalf("GemmTAAccum workers=%d cell %d differs", workers, i)
			}
		}
	}
}

// The package non-finite policy: a NaN/Inf operand propagates even when its
// partner entry is zero. Before this policy the zero-skip fast paths in
// Mul, MulVecTInto and AddOuter silently produced finite garbage.
func TestNonFinitePropagation(t *testing.T) {
	inf := math.Inf(1)

	// Mul: a has a zero exactly where b carries Inf.
	a := FromSlice(1, 2, []float64{0, 1})
	b := FromSlice(2, 2, []float64{inf, 2, 3, 4})
	out := Mul(a, b)
	if !math.IsNaN(out.At(0, 0)) {
		t.Errorf("Mul swallowed 0*Inf: got %v, want NaN", out.At(0, 0))
	}

	// MulVecTInto: x zero against a non-finite matrix row.
	av := FromSlice(2, 2, []float64{inf, inf, 1, 1})
	dst := make([]float64, 2)
	MulVecTInto(dst, av, []float64{0, 1})
	if !math.IsNaN(dst[0]) {
		t.Errorf("MulVecTInto swallowed 0*Inf: got %v, want NaN", dst[0])
	}

	// AddOuter: zero x entry against Inf y entry.
	m := New(2, 2)
	m.AddOuter([]float64{0, 1}, []float64{inf, 1})
	if !math.IsNaN(m.At(0, 0)) {
		t.Errorf("AddOuter swallowed 0*Inf: got %v, want NaN", m.At(0, 0))
	}

	// The batched kernels must implement the same policy.
	dg := make([]float64, 2)
	GemmInto(dg, []float64{0, 1}, []float64{inf, 2, 3, 4}, 1, 2, 2, 1)
	if !math.IsNaN(dg[0]) {
		t.Errorf("GemmInto swallowed 0*Inf: got %v, want NaN", dg[0])
	}
	dtb := make([]float64, 2)
	GemmTB(dtb, []float64{0, 1}, []float64{inf, 2, 3, 4}, 1, 2, 2, 1)
	if !math.IsNaN(dtb[0]) {
		t.Errorf("GemmTB swallowed 0*Inf: got %v, want NaN", dtb[0])
	}
	dta := make([]float64, 4)
	GemmTAAccum(dta, []float64{0, 1}, []float64{inf, 2}, 1, 2, 2, 1)
	if !math.IsNaN(dta[0]) {
		t.Errorf("GemmTAAccum swallowed 0*Inf: got %v, want NaN", dta[0])
	}

	// NaN input propagates through the float32 activations.
	nan32 := float32(math.NaN())
	if v := Exp32(nan32); v == v {
		t.Errorf("Exp32(NaN) = %v, want NaN", v)
	}
	if v := Tanh32(nan32); v == v {
		t.Errorf("Tanh32(NaN) = %v, want NaN", v)
	}
}

// The float32 instantiation of the generic kernels must work identically in
// structure; spot-check against a float64 reference within float32 noise.
func TestGemmFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, k, n = 5, 17, 9
	a64 := randSlice(m*k, rng)
	b64 := randSlice(k*n, rng)
	a := make([]float32, len(a64))
	b := make([]float32, len(b64))
	for i, v := range a64 {
		a[i] = float32(v)
	}
	for i, v := range b64 {
		b[i] = float32(v)
	}
	want := naiveGemm(a64, b64, m, k, n)
	dst := make([]float32, m*n)
	GemmInto(dst, a, b, m, k, n, 1)
	for i := range want {
		if diff := math.Abs(float64(dst[i]) - want[i]); diff > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("float32 GemmInto cell %d = %v, float64 reference %v", i, dst[i], want[i])
		}
	}
}

// The fast float32 activations must track the float64 library functions to
// a few ulps across their useful range.
func TestFast32Accuracy(t *testing.T) {
	for x := -87.0; x <= 87.0; x += 0.0371 {
		// Compare against exp of the float32-rounded input: rounding x
		// itself already moves e^x by ~ulp(x), which is not Exp32's error.
		got := float64(Exp32(float32(x)))
		want := math.Exp(float64(float32(x)))
		if relErr := math.Abs(got-want) / want; relErr > 4e-7 {
			t.Fatalf("Exp32(%v) = %v, want %v (rel err %v)", x, got, want, relErr)
		}
	}
	for x := -12.0; x <= 12.0; x += 0.0173 {
		got := float64(Tanh32(float32(x)))
		want := math.Tanh(x)
		if err := math.Abs(got - want); err > 1e-6 {
			t.Fatalf("Tanh32(%v) = %v, want %v", x, got, want)
		}
		gs := float64(Sigmoid32(float32(x)))
		ws := Sigmoid(x)
		if err := math.Abs(gs - ws); err > 1e-6 {
			t.Fatalf("Sigmoid32(%v) = %v, want %v", x, gs, ws)
		}
	}
	// Saturation and edges.
	if v := Exp32(-1000); v != 0 {
		t.Errorf("Exp32(-1000) = %v, want 0", v)
	}
	if v := Exp32(1000); !math.IsInf(float64(v), 1) {
		t.Errorf("Exp32(1000) = %v, want +Inf", v)
	}
	if v := Tanh32(50); v != 1 {
		t.Errorf("Tanh32(50) = %v, want 1", v)
	}
	if v := Tanh32(-50); v != -1 {
		t.Errorf("Tanh32(-50) = %v, want -1", v)
	}

	// SoftmaxInto32 must be a probability distribution.
	logits := []float32{1.5, -0.5, 3, 0}
	probs := make([]float32, 4)
	SoftmaxInto32(probs, logits)
	var sum float32
	for _, p := range probs {
		if p <= 0 || p >= 1 {
			t.Fatalf("SoftmaxInto32 prob out of range: %v", probs)
		}
		sum += p
	}
	if math.Abs(float64(sum)-1) > 1e-6 {
		t.Fatalf("SoftmaxInto32 sums to %v", sum)
	}
	if ArgMax(probs) != 2 {
		t.Fatalf("ArgMax = %d, want 2", ArgMax(probs))
	}
}

// The AVX2 vector sigmoid/tanh must be bit-identical to the scalar functions
// on every lane — random values across the whole dynamic range plus the edge
// cases (±0, ±Inf, NaN, saturation and underflow boundaries). Odd lengths
// exercise the scalar tail. On CPUs without AVX2 this still passes trivially
// (both sides run the scalar code), so the assembly is only truly pinned on
// AVX2 hardware — which includes CI.
func TestVectorTranscendentalsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 9, -9,
		9.0000005, -9.0000005, 88, -88, 200, -200,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		0.5, -0.5, 1e-30, -1e-30,
	}
	for i := 0; i < 1000; i++ {
		// Mix gate-scale values with full-range magnitudes.
		switch i % 3 {
		case 0:
			src = append(src, float32(rng.NormFloat64()*4))
		case 1:
			src = append(src, float32(rng.NormFloat64()*40))
		default:
			src = append(src, math.Float32frombits(rng.Uint32()))
		}
	}
	check := func(name string, into func(dst, src []float32), scalar func(float32) float32) {
		// Odd slice lengths force the post-vector tail path.
		for _, n := range []int{len(src), 8, 7, 17, 1, 0} {
			in := src[:n]
			dst := make([]float32, n)
			into(dst, in)
			for j, x := range in {
				want := scalar(x)
				if math.Float32bits(dst[j]) != math.Float32bits(want) {
					t.Fatalf("%s[%d] (x=%v %#08x): vector %v %#08x != scalar %v %#08x",
						name, j, x, math.Float32bits(x),
						dst[j], math.Float32bits(dst[j]), want, math.Float32bits(want))
				}
			}
		}
		// In-place application must work: the kernels read each lane once.
		inPlace := append([]float32(nil), src...)
		into(inPlace, inPlace)
		for j, x := range src {
			if math.Float32bits(inPlace[j]) != math.Float32bits(scalar(x)) {
				t.Fatalf("%s in-place diverged at %d (x=%v)", name, j, x)
			}
		}
	}
	check("SigmoidInto32", SigmoidInto32, Sigmoid32)
	check("TanhInto32", TanhInto32, Tanh32)
}
