package mat

import "math"

// This file holds the float32 transcendental kernels for the lstm FP32
// training fast path. math.Exp/math.Tanh are correctly-rounded float64
// implementations and together cost ~18% of a training run; the polynomial
// approximations here are ~3x cheaper and accurate to a few float32 ulps,
// which is far below the noise the FP32 GEMMs already introduce. They are
// pure Go and fully deterministic, so the FP32 golden hash pins their exact
// behavior. NaN propagates per the package non-finite policy.

const (
	exp32Log2E = 1.44269504088896341 // 1/ln 2
	// Cody-Waite split of ln 2: z*exp32C1 + z*exp32C2 reconstructs z*ln2
	// with float32 error far below the polynomial's.
	exp32C1 = 0.693359375
	exp32C2 = -2.12194440e-4
	// exp32Hi/exp32Lo bound the finite range: above Hi the result would
	// need 2^128, below Lo it underflows to zero.
	exp32Hi = 88.02
	exp32Lo = -87.33654
)

// Exp32 returns e^x as float32 using the classic Cephes expf reduction:
// x = k·ln2 + r with r in [-ln2/2, ln2/2], a degree-6 polynomial for e^r,
// and an exponent-field rebuild for 2^k. Maximum error is ~2 ulp. Inputs
// beyond ±88 saturate to +Inf/0; NaN returns NaN.
func Exp32(x float32) float32 {
	if x != x { // NaN
		return x
	}
	if x > exp32Hi {
		return float32(math.Inf(1))
	}
	if x < exp32Lo {
		return 0
	}
	// Round x/ln2 to the nearest integer k.
	zf := x * exp32Log2E
	if zf >= 0 {
		zf += 0.5
	} else {
		zf -= 0.5
	}
	k := int32(zf)
	// r = x - k·ln2, in two steps to keep the reduction exact.
	r := x - float32(k)*exp32C1
	r -= float32(k) * exp32C2

	// e^r ≈ 1 + r + r²·P(r), Cephes expf coefficients.
	z := r * r
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	res := p*z + r + 1

	// Multiply by 2^k via the exponent field. k is in [-126, 127] for the
	// clamped input range, so the bit pattern is a normal float.
	return res * math.Float32frombits(uint32(k+127)<<23)
}

// Sigmoid32 returns 1/(1+e^{-x}) using Exp32. The symmetric form only ever
// exponentiates non-positive values, so it cannot overflow.
func Sigmoid32(x float32) float32 {
	if x >= 0 {
		return 1 / (1 + Exp32(-x))
	}
	e := Exp32(x)
	return e / (1 + e)
}

// Tanh32 returns tanh(x) via (1-e^{-2|x|})/(1+e^{-2|x|}) with the sign
// restored, saturating to ±1 beyond |x| = 9 where float32 cannot tell the
// difference anyway.
func Tanh32(x float32) float32 {
	if x != x { // NaN
		return x
	}
	a := x
	if a < 0 {
		a = -a
	}
	if a > 9 {
		if x < 0 {
			return -1
		}
		return 1
	}
	e := Exp32(-2 * a)
	r := (1 - e) / (1 + e)
	if x < 0 {
		return -r
	}
	return r
}

// SigmoidInto32 writes Sigmoid32(src[i]) to dst[i]. On CPUs with AVX2 the
// bulk runs through an 8-wide assembly kernel that applies the exact scalar
// operation sequence per lane, so the results are bit-identical either way
// (pinned by TestVectorTranscendentalsMatchScalar). dst and src may alias
// exactly.
func SigmoidInto32(dst, src []float32) {
	if len(dst) != len(src) {
		panic("mat: SigmoidInto32 length mismatch")
	}
	j := 0
	if hasAVX2 && len(src) >= 8 {
		sigmoidVecAVX(&dst[0], &src[0], len(src))
		j = len(src) &^ 7
	}
	for ; j < len(src); j++ {
		dst[j] = Sigmoid32(src[j])
	}
}

// TanhInto32 writes Tanh32(src[i]) to dst[i], with the same AVX2 fast path
// and bit-identity guarantee as SigmoidInto32. dst and src may alias exactly.
func TanhInto32(dst, src []float32) {
	if len(dst) != len(src) {
		panic("mat: TanhInto32 length mismatch")
	}
	j := 0
	if hasAVX2 && len(src) >= 8 {
		tanhVecAVX(&dst[0], &src[0], len(src))
		j = len(src) &^ 7
	}
	for ; j < len(src); j++ {
		dst[j] = Tanh32(src[j])
	}
}

// SoftmaxInto32 is SoftmaxInto for float32 rows, using Exp32. dst and
// logits may alias.
func SoftmaxInto32(dst, logits []float32) {
	if len(dst) != len(logits) {
		panic("mat: softmaxinto32 length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := Exp32(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}
