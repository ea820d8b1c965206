package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// activation64 pairs a slice kernel with the scalar math expression it must
// reproduce bit for bit, and with its scalar loop (the non-FMA path).
type activation64 struct {
	name   string
	into   func(dst, src []float64)
	scalar func(dst, src []float64)
	want   func(float64) float64
}

var activations64 = []activation64{
	{"SigmoidInto64", SigmoidInto64, sigmoidScalar64, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"TanhInto64", TanhInto64, tanhScalar64, math.Tanh},
	{"expInto64", expInto64, expScalar64, math.Exp},
}

// edgeInputs64 returns the inputs where the vector kernels' fast-range test
// or branch blend could go wrong, both signs of each.
func edgeInputs64() []float64 {
	var mags []float64
	mags = append(mags,
		0, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 1e-310,
		math.MaxFloat64, 1e-300, 1e-20, 1e-8, 0.5, 1, 2,
	)
	// exp's overflow bound and the edge of the vector fast range.
	for _, v := range []float64{709, 709.4, 709.436, 709.437, 709.78, 7.09782712893384e+02, 709.79, 710, 745.2, 746} {
		mags = append(mags, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	// The −700…−746 band where exp's result goes denormal, then to zero.
	for v := 700.0; v <= 746; v += 0.25 {
		mags = append(mags, v)
	}
	mags = append(mags, 708, math.Nextafter(708, 0), math.Nextafter(708, 1000), 708.39, 708.4, 745.13, 745.14)
	// tanh's branch points: 0.625 and 0.5*MAXLOG.
	const tanhSat = 0.5 * 8.8029691931113054295988e+01
	for _, v := range []float64{0.625, tanhSat, 44, 354.5, 355} {
		mags = append(mags, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	var out []float64
	for _, m := range mags {
		out = append(out, m, -m)
	}
	return out
}

// checkActivation64 runs into over consecutive length-n windows of src, so
// at the odd lengths each edge value lands in different lanes of a 4-lane
// block and in the scalar tail.
func checkActivation64(t *testing.T, a activation64, into func(dst, src []float64), src []float64, n int) {
	t.Helper()
	dst := make([]float64, n)
	for off := 0; off+n <= len(src); off += max(n, 1) {
		in := src[off : off+n]
		into(dst, in)
		for j, x := range in {
			if want := a.want(x); math.Float64bits(dst[j]) != math.Float64bits(want) {
				t.Fatalf("%s n=%d [%d] (x=%v %#016x): got %v %#016x, math %v %#016x",
					a.name, n, off+j, x, math.Float64bits(x),
					dst[j], math.Float64bits(dst[j]), want, math.Float64bits(want))
			}
		}
	}
}

// The float64 vector kernels must be bit-identical to math on every lane:
// the edge values above, interleaved with gate-scale normal draws so that
// each lands in an otherwise in-range block, plus random bit patterns. The
// scalar loops are checked directly too, so the non-FMA path stays covered
// on FMA hosts. On hosts without AVX2+FMA both sides run scalar code and the
// assembly is pinned only by CI's hardware.
func TestVectorTranscendentals64MatchMath(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	var src []float64
	for _, e := range edgeInputs64() {
		src = append(src, e, rng.NormFloat64()*4, rng.NormFloat64()*4)
	}
	for i := 0; i < 3000; i++ {
		switch i % 3 {
		case 0:
			src = append(src, rng.NormFloat64()*4)
		case 1:
			src = append(src, rng.NormFloat64()*200)
		default:
			src = append(src, math.Float64frombits(rng.Uint64()))
		}
	}
	// The init probe must not quietly switch off a kernel that disagrees
	// with math: unless GODEBUG masks CPU features from math, the vector
	// path runs wherever the CPU has AVX2 and FMA.
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && vec64 != (hasAVX2 && hasFMA) {
		t.Fatalf("vec64 = %v on a host with AVX2 %v, FMA %v: the exp kernel disagrees with math.Exp", vec64, hasAVX2, hasFMA)
	}
	for _, a := range activations64 {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 17, 40, 160} {
			checkActivation64(t, a, a.into, src, n)
			checkActivation64(t, a, a.scalar, src, n)
		}
		inPlace := append([]float64(nil), src...)
		a.into(inPlace, inPlace)
		for j, x := range src {
			if want := a.want(x); math.Float64bits(inPlace[j]) != math.Float64bits(want) {
				t.Fatalf("%s in place diverged at %d (x=%v): got %v, math %v", a.name, j, x, inPlace[j], want)
			}
		}
	}

	// SoftmaxInto runs its exponentials through expInto64; it must still be
	// the shift-by-max formula over math.Exp, summed in index order.
	for _, n := range []int{1, 3, 4, 5, 17, 160} {
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 300
		}
		got := make([]float64, n)
		SoftmaxInto(got, logits)
		want := softmaxMath(logits)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SoftmaxInto n=%d [%d]: got %v, math formula %v", n, i, got[i], want[i])
			}
		}
	}
}

func softmaxMath(logits []float64) []float64 {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// FuzzActivations64 reads the input as little-endian float64 bit patterns
// and requires every kernel to agree with math bit for bit, at the input's
// own length and in place.
func FuzzActivations64(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(0.3))
	f.Add(seed(-1.5, 0.2, 3, -0.7, 12))
	f.Add(seed(math.NaN(), 1, 2, 3, math.Inf(-1), 0.1, -0.1, math.Copysign(0, -1)))
	f.Add(seed(709.5, -709.5, 745.1, -745.1, 1e-310, -1e-310, 0.625, -0.625))
	f.Add(seed(44.014845965556525, -44.01484596555653, 300, -300, 1, 1, 1, 1, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, a := range activations64 {
			dst := make([]float64, len(src))
			a.into(dst, src)
			inPlace := append([]float64(nil), src...)
			a.into(inPlace, inPlace)
			for i, x := range src {
				want := math.Float64bits(a.want(x))
				if math.Float64bits(dst[i]) != want || math.Float64bits(inPlace[i]) != want {
					t.Fatalf("%s(%v %#016x) = %v / in place %v, math %v",
						a.name, x, math.Float64bits(x), dst[i], inPlace[i], math.Float64frombits(want))
				}
			}
		}
	})
}

// BenchmarkActivations64 times the float64 kernels against their scalar
// loops on LSTM gate rows: 40 is one gate of the tiny-scale Hidden 40, 160
// all four.
func BenchmarkActivations64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{40, 160} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 4
		}
		dst := make([]float64, n)
		for _, a := range activations64 {
			for _, k := range []struct {
				path string
				into func(dst, src []float64)
			}{{"kernel", a.into}, {"scalar", a.scalar}} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", a.name, k.path, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.into(dst, src)
					}
					b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "elems/s")
				})
			}
		}
	}
}
