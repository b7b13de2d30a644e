package dense

import (
	"math/rand"
	"testing"
)

// shape is a factor shape the dense benchmarks run at: rows × R, and the
// Workers value passed to the kernel (0 = every core). 1024×16 at two
// workers is memo-zipf4's factor and setting, and 65536×16 is coo-short3's
// long mode.
type shape struct{ rows, cols, workers int }

// BenchmarkGram times the Gram through a reused GramScratch, as the ALS
// loop takes it once per mode update.
func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []shape{{1024, 16, 2}, {10000, 16, 0}, {65536, 16, 0}, {100000, 16, 0}, {10000, 64, 0}} {
		a := Random(sh.rows, sh.cols, rng)
		out := New(sh.cols, sh.cols)
		var s GramScratch
		b.Run(shapeName(sh.rows, sh.cols, sh.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Gram(a, out, sh.workers)
			}
		})
	}
}

func BenchmarkSymEig(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 64} {
		a := randomSPD(n, rng)
		b.Run(shapeName(n, n, 0), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SymEig(a)
			}
		})
	}
}

// BenchmarkSolveSPDInPlace times the solve through a reused SPDSolver, as
// the ALS loop runs it once per mode update. Each iteration first restores
// the right-hand side, so the copy is part of the time.
func BenchmarkSolveSPDInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []shape{{1024, 16, 2}, {50000, 16, 0}, {65536, 16, 0}} {
		a := randomSPD(sh.cols, rng)
		m := Random(sh.rows, sh.cols, rng)
		work := m.Clone()
		var s SPDSolver
		b.Run(shapeName(sh.rows, sh.cols, sh.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work.CopyFrom(m)
				s.Solve(a, work, sh.workers)
			}
		})
	}
}

// shapeName is "rows x cols", with "w<workers>" appended when the
// benchmark fixes the worker count.
func shapeName(r, c, workers int) string {
	name := itoa(r) + "x" + itoa(c)
	if workers > 0 {
		name += "w" + itoa(workers)
	}
	return name
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
