//go:build !amd64

package mat

// Non-amd64 builds always take the generic Go kernels; the stubs below are
// never reached (the dispatch sites check hasAVX first) but keep the
// package compiling on every platform.

const hasAVX = false
const hasAVX2 = false
const hasFMA = false

func expVec64(dst, src *float64, n int) int {
	panic("mat: expVec64 called without AVX2+FMA support")
}

func sigmoidVec64(dst, src *float64, n int) int {
	panic("mat: sigmoidVec64 called without AVX2+FMA support")
}

func tanhVec64(dst, src *float64, n int) int {
	panic("mat: tanhVec64 called without AVX2+FMA support")
}

func sigmoidVecAVX(dst, src *float32, n int) {
	panic("mat: sigmoidVecAVX called without AVX2 support")
}

func tanhVecAVX(dst, src *float32, n int) {
	panic("mat: tanhVecAVX called without AVX2 support")
}

func axpyQuadAVX(dst, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32) {
	panic("mat: axpyQuadAVX called without AVX support")
}

func axpyAVX(dst, b *float32, n int, a float32) {
	panic("mat: axpyAVX called without AVX support")
}

func axpyOctAVX(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float32, n int, a *float32) {
	panic("mat: axpyOctAVX called without AVX support")
}

func taccumOctAVX(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float32, rows, n int) {
	panic("mat: taccumOctAVX called without AVX support")
}

func taccumQuadAVX(dst, coef, b0, b1, b2, b3 *float32, rows, n int) {
	panic("mat: taccumQuadAVX called without AVX support")
}

func taccumRank1AVX(dst, coef, b *float32, rows, n int) {
	panic("mat: taccumRank1AVX called without AVX support")
}

func axpyQuadAVX64(dst, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("mat: axpyQuadAVX64 called without AVX support")
}

func axpyAVX64(dst, b *float64, n int, a float64) {
	panic("mat: axpyAVX64 called without AVX support")
}

func axpyOctAVX64(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a *float64) {
	panic("mat: axpyOctAVX64 called without AVX support")
}

func taccumOctAVX64(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float64, rows, n int) {
	panic("mat: taccumOctAVX64 called without AVX support")
}

func taccumQuadAVX64(dst, coef, b0, b1, b2, b3 *float64, rows, n int) {
	panic("mat: taccumQuadAVX64 called without AVX support")
}

func taccumRank1AVX64(dst, coef, b *float64, rows, n int) {
	panic("mat: taccumRank1AVX64 called without AVX support")
}
