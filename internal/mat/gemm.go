package mat

import (
	"fmt"

	"leakydnn/internal/par"
)

// This file holds the batched matrix-matrix kernels the LSTM training hot
// path runs on. They exist because the per-sequence gemv kernels above are
// latency-bound: each output element is one long chain of dependent
// floating-point adds, so a modern core spends ~4 cycles per element waiting
// on the adder. A GEMM shapes the same arithmetic into many independent
// accumulator chains (four unrolled dot products in GemmTB, a streamed row
// of memory accumulators in GemmInto/GemmTAAccum), which keeps the FP units
// busy instead of stalled.
//
// Two properties are load-bearing and pinned by tests:
//
//   - Per-cell accumulation order is fixed. Every output cell sums its
//     products in ascending reduction-index order (k for GemmInto/GemmTB,
//     the shared leading dimension p for GemmTAAccum), which is exactly the
//     order the gemv kernels use. A GEMM call with m=1 (or p=1) is therefore
//     bit-identical to the corresponding MulVecInto/MulVecTInto/AddOuter
//     call — the property the Batch=1 golden hashes rest on.
//   - Parallelism only partitions output cells across workers, never the
//     reduction inside a cell, so results are byte-identical for every
//     worker count (including 0 = GOMAXPROCS).
//
// The kernels follow the package non-finite policy: no zero-skip shortcuts,
// NaN/Inf operands always propagate.
//
// All kernels are generic over float32/float64; the float32 instantiation
// backs the lstm FP32 training fast path. The slice-level Gemm* functions
// take row-major buffers plus explicit dimensions so callers with pooled
// flat buffers (the batched LSTM scratch) pay no per-call header allocation.

// Float is the element type the GEMM kernels are generic over.
type Float interface {
	~float32 | ~float64
}

// gemmParallelMin is the minimum m*k*n product volume before the
// partitioned path fans out; below it goroutine dispatch costs more
// than the split saves. 2^16 multiply-adds is ~20µs of serial work.
const gemmParallelMin = 1 << 16

// GemmInto computes dst = a·b for row-major buffers: a is m×k, b is k×n,
// dst is m×n and is overwritten. Each dst cell accumulates its products in
// ascending k order (bit-identical to MulVecTInto's row accumulation when
// m=1). dst must not alias a or b. workers <= 1 runs serially; larger
// values partition dst rows, which cannot change the result.
func GemmInto[F Float](dst, a, b []F, m, k, n, workers int) {
	checkGemm("gemminto", len(dst), len(a), len(b), m*n, m*k, k*n)
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*k*n < gemmParallelMin {
		gemmIntoRows(dst, a, b, k, n, 0, m)
		return
	}
	_ = par.Do(workers, workers, func(w int) error {
		lo, hi := partition(m, workers, w)
		gemmIntoRows(dst, a, b, k, n, lo, hi)
		return nil
	})
}

// gemmIntoRows walks b's rows outermost: b (usually a weight matrix much
// larger than the m×n dst) is streamed exactly once per call, while the dst
// rows it scatters into stay L1-resident. Cell (i,j) still accumulates its
// products in ascending p order — the same order MulVecTInto uses — the
// nest only changes which cell is visited when.
// Like gemmTAAccumRows, four b rows are folded per pass with explicitly
// sequenced adds, so each dst element is loaded and stored once per four
// products while every cell still sums in ascending p order.
func gemmIntoRows[F Float](dst, a, b []F, k, n, i0, i1 int) {
	if hasAVX {
		switch d := any(dst).(type) {
		case []float32:
			gemmIntoRows32(d, any(a).([]float32), any(b).([]float32), k, n, i0, i1)
			return
		case []float64:
			gemmIntoRows64(d, any(a).([]float64), any(b).([]float64), k, n, i0, i1)
			return
		}
	}
	for i := i0; i < i1; i++ {
		drow := dst[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		b0 := b[(p+0)*n : (p+0)*n+n]
		b1 := b[(p+1)*n : (p+1)*n+n]
		b2 := b[(p+2)*n : (p+2)*n+n]
		b3 := b[(p+3)*n : (p+3)*n+n]
		for i := i0; i < i1; i++ {
			ar := a[i*k+p:]
			a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
			drow := dst[i*n:][:len(b0)]
			for j := range drow {
				v := drow[j] + a0*b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				drow[j] = v + a3*b3[j]
			}
		}
	}
	for ; p < k; p++ {
		brow := b[p*n : p*n+n]
		for i := i0; i < i1; i++ {
			av := a[i*k+p]
			drow := dst[i*n:][:len(brow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// GemmTB computes dst = a·bᵀ for row-major buffers: a is m×k, b is n×k,
// dst is m×n and is overwritten. Every cell is the dot product of an a row
// and a b row, accumulated in ascending k order in a register — the exact
// operation sequence of MulVecInto, so m=1 calls are bit-identical to it.
// Four b rows are processed per pass, giving four independent add chains
// (the latency fix) without touching any cell's internal order. dst must
// not alias a or b. workers partition dst columns.
func GemmTB[F Float](dst, a, b []F, m, k, n, workers int) {
	checkGemm("gemmtb", len(dst), len(a), len(b), m*n, m*k, n*k)
	if workers > n {
		workers = n
	}
	if workers <= 1 || m*k*n < gemmParallelMin {
		gemmTBCols(dst, a, b, m, k, n, 0, n)
		return
	}
	_ = par.Do(workers, workers, func(w int) error {
		lo, hi := partition(n, workers, w)
		gemmTBCols(dst, a, b, m, k, n, lo, hi)
		return nil
	})
}

// gemmTBCols keeps the column panel outermost: the four b rows of a panel
// are loaded once and reused against every a row (which stay L1-resident),
// so b — usually the large weight matrix — is streamed once per call
// instead of once per dst row. Two a rows are processed per pass, giving
// eight independent accumulator chains against the FP-add latency. Each
// cell is still one register dot product in ascending k order.
func gemmTBCols[F Float](dst, a, b []F, m, k, n, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		b0 := b[(j+0)*k : (j+0)*k+k]
		b1 := b[(j+1)*k : (j+1)*k+k]
		b2 := b[(j+2)*k : (j+2)*k+k]
		b3 := b[(j+3)*k : (j+3)*k+k]
		i := 0
		for ; i+2 <= m; i += 2 {
			ar0 := a[(i+0)*k:][:len(b0)]
			ar1 := a[(i+1)*k:][:len(b0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 F
			for p, av0 := range ar0 {
				av1 := ar1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			d0 := dst[(i+0)*n : (i+0)*n+n]
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1 := dst[(i+1)*n : (i+1)*n+n]
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; i < m; i++ {
			arow := a[i*k:][:len(b0)]
			var s0, s1, s2, s3 F
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			drow := dst[i*n : i*n+n]
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
	}
	for ; j < j1; j++ {
		brow := b[j*k : j*k+k]
		for i := 0; i < m; i++ {
			arow := a[i*k:][:len(brow)]
			var sum F
			for p, av := range arow {
				sum += av * brow[p]
			}
			dst[i*n+j] = sum
		}
	}
}

// GemmTAAccum computes dst += aᵀ·b for row-major buffers: a is p×m, b is
// p×n, dst is m×n and is accumulated into. Each dst cell receives its p
// products one at a time in ascending p order — with p=1 this is exactly
// one AddOuter, which is how the batched backward pass stays bit-identical
// to the per-sequence gradient accumulation at Batch=1. dst must not alias
// a or b. workers partition dst rows.
func GemmTAAccum[F Float](dst, a, b []F, p, m, n, workers int) {
	checkGemm("gemmtaaccum", len(dst), len(a), len(b), m*n, p*m, p*n)
	if workers > m {
		workers = m
	}
	if workers <= 1 || p*m*n < gemmParallelMin {
		gemmTAAccumRows(dst, a, b, p, m, n, 0, m)
		return
	}
	_ = par.Do(workers, workers, func(w int) error {
		lo, hi := partition(m, workers, w)
		gemmTAAccumRows(dst, a, b, p, m, n, lo, hi)
		return nil
	})
}

// gemmTAAccumRows keeps the dst row outermost: each row receives all p of
// its rank-1 contributions while it is hot in L1, instead of streaming the
// whole (often cache-sized) dst matrix once per p. Four s-contributions are
// folded per pass with explicitly sequenced adds — v accumulates a0·b0,
// then a1·b1, then a2·b2, then a3·b3, exactly the ascending-s order the
// scalar loop uses — so dst is loaded and stored once per four products
// instead of once per product, without changing a single cell's bits.
func gemmTAAccumRows[F Float](dst, a, b []F, p, m, n, i0, i1 int) {
	if hasAVX {
		switch d := any(dst).(type) {
		case []float32:
			gemmTAAccumRows32(d, any(a).([]float32), any(b).([]float32), p, m, n, i0, i1)
			return
		case []float64:
			gemmTAAccumRows64(d, any(a).([]float64), any(b).([]float64), p, m, n, i0, i1)
			return
		}
	}
	for i := i0; i < i1; i++ {
		drow := dst[i*n : i*n+n]
		s := 0
		for ; s+4 <= p; s += 4 {
			a0 := a[(s+0)*m+i]
			a1 := a[(s+1)*m+i]
			a2 := a[(s+2)*m+i]
			a3 := a[(s+3)*m+i]
			b0 := b[(s+0)*n:][:len(drow)]
			b1 := b[(s+1)*n:][:len(drow)]
			b2 := b[(s+2)*n:][:len(drow)]
			b3 := b[(s+3)*n:][:len(drow)]
			for j := range drow {
				v := drow[j] + a0*b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				drow[j] = v + a3*b3[j]
			}
		}
		for ; s < p; s++ {
			av := a[s*m+i]
			brow := b[s*n:][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// partition splits n items into parts near-equal ranges and returns the
// half-open bounds of part i. Only the assignment of cells to workers
// depends on the split, never any cell's value.
func partition(n, parts, i int) (lo, hi int) {
	q, r := n/parts, n%parts
	lo = i * q
	if i < r {
		lo += i
	} else {
		lo += r
	}
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

func checkGemm(op string, dl, al, bl, dWant, aWant, bWant int) {
	if dl != dWant || al != aWant || bl != bWant {
		panic(fmt.Sprintf("mat: %s buffer sizes dst=%d a=%d b=%d, want dst=%d a=%d b=%d",
			op, dl, al, bl, dWant, aWant, bWant))
	}
}
