//go:build amd64

package mat

// The float32 GEMM row kernels dispatch to hand-written AVX axpy loops when
// the CPU supports them. Vector lanes span the j (output-column) dimension,
// so each output cell's products are still summed one at a time in ascending
// reduction order — eight *different* cells advance per instruction, no
// cell's own add chain is ever reassociated. The FP32 golden hash in
// internal/lstm pins this: the assembly path and the generic Go path must
// produce byte-identical networks.

// hasAVX reports whether the CPU and OS support AVX (VEX-encoded YMM ops
// plus OS-saved YMM state). Checked once at init.
var hasAVX = cpuHasAVX()

// hasAVX2 additionally requires AVX2 (integer ops on YMM registers), which
// the vectorized transcendentals need for their exponent rebuild
// (VPADDD/VPSLLD). OS YMM-state support is covered by the hasAVX check.
var hasAVX2 = hasAVX && cpuHasAVX2()

// hasFMA reports AVX plus FMA3 support: math's own useFMA condition, under
// which math.Exp takes the fused branch the float64 vector transcendentals
// replicate.
var hasFMA = hasAVX && cpuHasFMA()

// cpuHasAVX executes CPUID leaf 1 and XGETBV to verify both the AVX feature
// bit and OS support for YMM state.
func cpuHasAVX() bool

// cpuHasFMA executes CPUID leaf 1 and reports the FMA bit (ECX bit 12).
func cpuHasFMA() bool

// cpuHasAVX2 executes CPUID leaf 7 subleaf 0 and reports the AVX2 bit.
func cpuHasAVX2() bool

// sigmoidVecAVX writes Sigmoid32(src[i]) to dst[i] for i in [0, n&^7),
// bit-identical to the scalar function; the caller handles the tail.
//
//go:noescape
func sigmoidVecAVX(dst, src *float32, n int)

// tanhVecAVX writes Tanh32(src[i]) to dst[i] for i in [0, n&^7),
// bit-identical to the scalar function; the caller handles the tail.
//
//go:noescape
func tanhVecAVX(dst, src *float32, n int)

// expVec64, sigmoidVec64 and tanhVec64 write math.Exp(src[i]),
// 1/(1+math.Exp(-src[i])) and math.Tanh(src[i]) to dst[i], bit-identical to
// math's FMA branch, over leading 4-lane blocks. Each returns how many
// elements it wrote: it stops at the tail or before the first block with a
// lane outside its fast range, which the caller finishes in scalar.
//
//go:noescape
func expVec64(dst, src *float64, n int) int

//go:noescape
func sigmoidVec64(dst, src *float64, n int) int

//go:noescape
func tanhVec64(dst, src *float64, n int) int

// axpyQuadAVX computes, for j in [0,n):
//
//	dst[j] = ((dst[j] + a0*b0[j]) + a1*b1[j] + a2*b2[j]) + a3*b3[j]
//
// with the four contributions applied in argument order — the same sequence
// of rounding steps as the generic quad loop in gemmIntoRows/gemmTAAccumRows.
//
//go:noescape
func axpyQuadAVX(dst, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

// axpyAVX computes dst[j] += a*b[j] for j in [0,n).
//
//go:noescape
func axpyAVX(dst, b *float32, n int, a float32)

// axpyOctAVX applies eight accumulation steps dst[j] += a[s]*bs[j] in
// argument order — the identical rounding chain as two quad calls, with half
// the call overhead. a points at 8 contiguous coefficients.
//
//go:noescape
func axpyOctAVX(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float32, n int, a *float32)

// taccumOctAVX applies axpyOctAVX's eight in-order accumulation steps to
// `rows` consecutive dst rows of width n, reading a distinct 8-coefficient
// set per row from the transposed staging block coef (row r uses
// coef[8r:8r+8]). One call amortizes setup over the whole row range.
//
//go:noescape
func taccumOctAVX(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float32, rows, n int)

// taccumQuadAVX is the four-step sibling of taccumOctAVX (row r uses
// coef[4r:4r+4]).
//
//go:noescape
func taccumQuadAVX(dst, coef, b0, b1, b2, b3 *float32, rows, n int)

// taccumRank1AVX accumulates the rank-1 update dst[r][j] += coef[r]*b[j]
// over `rows` consecutive dst rows of width n.
//
//go:noescape
func taccumRank1AVX(dst, coef, b *float32, rows, n int)

// axpyQuadAVX64 is the float64 counterpart of axpyQuadAVX.
//
//go:noescape
func axpyQuadAVX64(dst, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

// axpyAVX64 is the float64 counterpart of axpyAVX.
//
//go:noescape
func axpyAVX64(dst, b *float64, n int, a float64)

// axpyOctAVX64 is the float64 counterpart of axpyOctAVX.
//
//go:noescape
func axpyOctAVX64(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a *float64)

// taccumOctAVX64 is the float64 counterpart of taccumOctAVX.
//
//go:noescape
func taccumOctAVX64(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float64, rows, n int)

// taccumQuadAVX64 is the float64 counterpart of taccumQuadAVX.
//
//go:noescape
func taccumQuadAVX64(dst, coef, b0, b1, b2, b3 *float64, rows, n int)

// taccumRank1AVX64 is the float64 counterpart of taccumRank1AVX.
//
//go:noescape
func taccumRank1AVX64(dst, coef, b *float64, rows, n int)
