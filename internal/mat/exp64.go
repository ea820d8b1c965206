package mat

import "math"

// This file holds the float64 transcendental kernels for the FP64 LSTM gate
// loops and SoftmaxInto. Unlike the float32 ones they are not approximations:
// on CPUs with AVX2 and FMA the bulk runs through 4-wide assembly that
// replays math.Exp's FMA branch per lane (and math.tanh's two branches,
// blended), so every result is bit-identical to the math package and the
// FP64 goldens cannot tell which path ran. math.Exp takes that branch on
// exactly the hosts where vec64 holds; everywhere else both sides are the
// scalar loops below.

// vec64 gates the float64 vector kernels: AVX2 for the exponent rebuild plus
// FMA, which with AVX is math's own useFMA condition. The probe confirms that
// math.Exp really takes its FMA branch; GODEBUG=cpu.fma=off turns that
// branch off without changing what CPUID reports.
var vec64 = hasAVX2 && hasFMA && expVecMatchesMath()

// expVecMatchesMath runs the exp kernel on inputs that math.Exp's FMA and
// non-FMA branches round differently and reports whether it agrees with math.
func expVecMatchesMath() bool {
	src := [4]float64{0.375, 0.59375, 1.03125, 1.8125}
	var dst [4]float64
	if expVec64(&dst[0], &src[0], len(src)) != len(src) {
		return false
	}
	for i, x := range src {
		if dst[i] != math.Exp(x) {
			return false
		}
	}
	return true
}

// SigmoidInto64 writes Sigmoid(src[i]) to dst[i], bit-identical to the
// scalar function. dst and src may alias exactly.
func SigmoidInto64(dst, src []float64) {
	checkVecLen(dst, src, "sigmoidinto64")
	apply64(dst, src, sigmoidVec64, sigmoidScalar64)
}

// TanhInto64 writes math.Tanh(src[i]) to dst[i], bit-identical to math.
// dst and src may alias exactly.
func TanhInto64(dst, src []float64) {
	checkVecLen(dst, src, "tanhinto64")
	apply64(dst, src, tanhVec64, tanhScalar64)
}

// expInto64 writes math.Exp(src[i]) to dst[i], bit-identical to math. dst
// and src may alias exactly.
func expInto64(dst, src []float64) {
	apply64(dst, src, expVec64, expScalar64)
}

// apply64 runs the vector kernel over as many 4-lane blocks as it accepts
// and the scalar loop over the rest: the tail, and any block the kernel
// refused because a lane left its fast range (NaN, ±Inf, overflow or
// denormal exp results), after which the kernel resumes.
func apply64(dst, src []float64, vec func(dst, src *float64, n int) int, scalar func(dst, src []float64)) {
	if !vec64 {
		scalar(dst, src)
		return
	}
	for i := 0; i < len(src); {
		if len(src)-i >= 4 {
			i += vec(&dst[i], &src[i], len(src)-i)
		}
		end := min(i+4, len(src))
		scalar(dst[i:end], src[i:end])
		i = end
	}
}

func sigmoidScalar64(dst, src []float64) {
	for i, v := range src {
		dst[i] = Sigmoid(v)
	}
}

func tanhScalar64(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}

func expScalar64(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Exp(v)
	}
}
