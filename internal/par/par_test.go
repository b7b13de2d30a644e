package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, w := range []int{0, 1, 3, 16, 2000} {
			var hits sync.Map
			var count atomic.Int64
			For(n, w, func(i int) {
				if _, dup := hits.LoadOrStore(i, true); dup {
					t.Errorf("n=%d w=%d: index %d visited twice", n, w, i)
				}
				count.Add(1)
			})
			if int(count.Load()) != n {
				t.Errorf("n=%d w=%d: visited %d indices", n, w, count.Load())
			}
		}
	}
}

func TestForRangeBlocksPartition(t *testing.T) {
	n := 103
	covered := make([]atomic.Int32, n)
	ForRange(n, 7, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	ForWorker(100, 5, func(w, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if seen[w] {
			t.Errorf("worker id %d reused", w)
		}
		seen[w] = true
	})
	if len(seen) != 5 {
		t.Fatalf("saw %d worker ids, want 5", len(seen))
	}
}

func TestStripesProtect(t *testing.T) {
	s := NewStripes(64)
	counters := make([]int, 1000) // unsynchronized ints; stripes must serialize
	For(10000, 8, func(i int) {
		row := int32(i % 1000)
		s.Lock(row)
		counters[row]++
		s.Unlock(row)
	})
	for i, c := range counters {
		if c != 10 {
			t.Fatalf("counter %d = %d, want 10", i, c)
		}
	}
}

func TestStripesPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65} {
		s := NewStripes(n)
		if s.Len() < n || s.Len()&(s.Len()-1) != 0 {
			t.Errorf("NewStripes(%d) has %d stripes", n, s.Len())
		}
	}
}

func TestForRangeAndWorkerEdgeCases(t *testing.T) {
	called := false
	ForRange(0, 4, func(lo, hi int) { called = true })
	ForWorker(0, 4, func(w, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n = 0")
	}
	// workers > n: at most n non-empty blocks, each of width 1.
	var count atomic.Int64
	ForWorker(3, 50, func(w, lo, hi int) {
		if hi-lo != 1 {
			t.Errorf("workers>n: block [%d,%d) not width 1", lo, hi)
		}
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("workers>n: %d blocks, want 3", count.Load())
	}
}

func TestWeightedBounds(t *testing.T) {
	// Uniform weights: bounds are (near-)even splits.
	prefix := make([]int64, 101)
	for i := range prefix {
		prefix[i] = int64(i)
	}
	b := WeightedBounds(prefix, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 100 {
		t.Fatalf("uniform bounds = %v", b)
	}
	for c := 0; c < 4; c++ {
		if w := b[c+1] - b[c]; w < 20 || w > 30 {
			t.Errorf("uniform chunk %d width %d", c, w)
		}
	}
	// Skewed weights: one heavy element gets its own chunk; total weight per
	// chunk stays within 2x the ideal share for the rest.
	skew := []int64{0, 1, 2, 3, 1003, 1004, 1005, 1006, 1007} // element 3 weighs 1000
	b = WeightedBounds(skew, 4)
	if b[0] != 0 || b[len(b)-1] != 8 {
		t.Fatalf("skewed bounds = %v", b)
	}
	for c := 0; c < len(b)-1; c++ {
		if b[c] > b[c+1] {
			t.Fatalf("non-monotone bounds %v", b)
		}
	}
	// Degenerate shapes.
	if b := WeightedBounds([]int64{0}, 4); len(b) != 1 || b[0] != 0 {
		t.Errorf("empty bounds = %v", b)
	}
	if b := WeightedBounds([]int64{0, 0, 0}, 8); b[0] != 0 || b[len(b)-1] != 2 {
		t.Errorf("zero-weight bounds = %v", b)
	}
	// More chunks than elements: clamped to n.
	if b := WeightedBounds([]int64{0, 5, 9}, 100); len(b) != 3 || b[2] != 2 {
		t.Errorf("overchunked bounds = %v", b)
	}
}

// chunkWeights returns the weight of every chunk described by bounds.
func chunkWeights(prefix []int64, bounds []int) []int64 {
	out := make([]int64, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		out[c] = prefix[bounds[c+1]] - prefix[bounds[c]]
	}
	return out
}

// maxItemWeight returns the largest single item weight in the prefix array.
func maxItemWeight(prefix []int64) int64 {
	var m int64
	for i := 0; i+1 < len(prefix); i++ {
		if w := prefix[i+1] - prefix[i]; w > m {
			m = w
		}
	}
	return m
}

// checkBalance asserts the load-balance invariant of WeightedBounds: every
// chunk's weight is at most the ideal share (rounded up) plus one maximal
// item — the best any contiguous splitter can guarantee.
func checkBalance(t *testing.T, name string, prefix []int64, nchunks int) {
	t.Helper()
	b := WeightedBounds(prefix, nchunks)
	n := len(prefix) - 1
	if b[0] != 0 || b[len(b)-1] != n {
		t.Fatalf("%s: bounds %v do not span [0,%d]", name, b, n)
	}
	for c := 0; c+1 < len(b); c++ {
		if b[c] > b[c+1] {
			t.Fatalf("%s: non-monotone bounds %v", name, b)
		}
	}
	total := prefix[n]
	k := int64(len(b) - 1)
	ideal := (total + k - 1) / k // ⌈total/nchunks⌉
	limit := ideal + maxItemWeight(prefix)
	for c, w := range chunkWeights(prefix, b) {
		if w > limit {
			t.Errorf("%s: chunk %d weight %d > ideal %d + max item %d",
				name, c, w, ideal, maxItemWeight(prefix))
		}
	}
}

// TestWeightedBoundsBalance is the regression test for the truncating-
// division scheduler bug: computing targets as total/nchunks*c loses up to
// nchunks-1 weight units per chunk share, which piled onto the last chunk
// (weight 55 vs the ideal 15.6 at 1000 unit items / 64 chunks). Every shape
// here must satisfy max chunk weight <= ceil(total/nchunks) + max item.
func TestWeightedBoundsBalance(t *testing.T) {
	// The reproduced imbalance case: 1000 unit-weight items, 64 chunks.
	uniform := make([]int64, 1001)
	for i := range uniform {
		uniform[i] = int64(i)
	}
	checkBalance(t, "uniform-1000x64", uniform, 64)
	b := WeightedBounds(uniform, 64)
	var worst int64
	for _, w := range chunkWeights(uniform, b) {
		if w > worst {
			worst = w
		}
	}
	// ceil(1000/64) = 16 (+1 item); the truncating bug produced 55 here.
	if worst > 17 {
		t.Errorf("uniform 1000x64: max chunk weight %d, want <= 17", worst)
	}

	// Zipf-skewed weights: item i weighs ~ 1/(i+1) scaled up.
	zipf := make([]int64, 2001)
	for i := 1; i < len(zipf); i++ {
		zipf[i] = zipf[i-1] + int64(100000/(i))
	}
	checkBalance(t, "zipf", zipf, 64)
	checkBalance(t, "zipf", zipf, 7)

	// Zero-weight runs interleaved with weighted items.
	mixed := make([]int64, 501)
	for i := 1; i < len(mixed); i++ {
		w := int64(0)
		if i%5 == 0 {
			w = int64(i)
		}
		mixed[i] = mixed[i-1] + w
	}
	checkBalance(t, "sparse-weights", mixed, 32)

	// total < nchunks: targets round to tiny values; invariant must hold.
	small := []int64{0, 1, 1, 2, 2, 3, 3, 3, 4, 5}
	checkBalance(t, "total<nchunks", small, 8)
	checkBalance(t, "total<nchunks", small, 64)
}

// TestWeightedBoundsZeroTotal pins the degenerate all-zero-weight fix: the
// bounds must fall back to an even item split instead of collapsing every
// interior bound to 0 (which handed one chunk all n items).
func TestWeightedBoundsZeroTotal(t *testing.T) {
	prefix := make([]int64, 129) // 128 items, all weight 0
	b := WeightedBounds(prefix, 8)
	if len(b) != 9 || b[0] != 0 || b[8] != 128 {
		t.Fatalf("zero-total bounds = %v", b)
	}
	for c := 0; c < 8; c++ {
		if w := b[c+1] - b[c]; w != 16 {
			t.Errorf("zero-total chunk %d spans %d items, want 16", c, w)
		}
	}
}

// TestWeightedBoundsHugeTotal exercises the 128-bit overflow guard: totals
// beyond 2^40 must still produce exact floor(c*total/nchunks) targets.
func TestWeightedBoundsHugeTotal(t *testing.T) {
	const n = 64
	per := int64(1) << 45 // total = 2^51, c*total would overflow naive i64 at c*total ~ 2^57 < 2^63, so also check near the edge below
	prefix := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		prefix[i] = prefix[i-1] + per
	}
	checkBalance(t, "huge-uniform", prefix, 16)
	// Near-overflow: total close to 2^62, 64 chunks — naive c*total overflows.
	prefix2 := make([]int64, n+1)
	per2 := (int64(1) << 62) / n
	for i := 1; i <= n; i++ {
		prefix2[i] = prefix2[i-1] + per2
	}
	checkBalance(t, "near-overflow", prefix2, 64)
	b := WeightedBounds(prefix2, 64)
	for c := 0; c < 64; c++ {
		if b[c] != c {
			t.Fatalf("near-overflow bounds %v: want the identity split", b)
		}
	}
}

func TestForChunksCoversAndSkipsEmpty(t *testing.T) {
	prefix := []int64{0, 10, 10, 10, 40, 45, 50, 100, 100, 120}
	n := len(prefix) - 1
	for _, workers := range []int{1, 3, 16} {
		bounds := WeightedBounds(prefix, workers*8)
		covered := make([]atomic.Int32, n)
		ForChunks(bounds, workers, func(w, lo, hi int) {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d) dispatched", lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, covered[i].Load())
			}
		}
	}
	// Empty bounds: no calls, no hang.
	ForChunks([]int{0}, 4, func(w, lo, hi int) { t.Error("called on empty bounds") })
	ForChunks(nil, 4, func(w, lo, hi int) { t.Error("called on nil bounds") })
}

func TestForChunksSingleWorkerAllocFree(t *testing.T) {
	prefix := make([]int64, 1001)
	for i := range prefix {
		prefix[i] = int64(i * 3)
	}
	bounds := WeightedBounds(prefix, 8)
	var sink atomic.Int64
	body := func(w, lo, hi int) { sink.Store(int64(hi)) }
	if n := testing.AllocsPerRun(50, func() {
		ForChunks(bounds, 1, body)
	}); n != 0 {
		t.Errorf("single-worker ForChunks allocates %v/op", n)
	}
}

func TestStripesFor(t *testing.T) {
	for _, tc := range []struct{ rows, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {8192, 8192}, {100000, 8192},
	} {
		if got := StripesFor(tc.rows).Len(); got != tc.want {
			t.Errorf("StripesFor(%d) = %d stripes, want %d", tc.rows, got, tc.want)
		}
	}
}

// Property: the sum computed by a parallel reduction equals the sequential
// sum for any n and worker count.
func TestParallelSumProperty(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n % 2000)
		var total atomic.Int64
		For(nn, int(w%32), func(i int) { total.Add(int64(i)) })
		return total.Load() == int64(nn)*int64(nn-1)/2 || nn == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPerWorkerPadded: every buffer has exactly n elements (an append
// cannot reach into the padding) and starts at least a cache line past the
// end of every other worker's buffer.
func TestPerWorkerPadded(t *testing.T) {
	checkPadded(t, PerWorker[[]float64](4, 2), 2)
	checkPadded(t, PerWorker[int32](4, 3), 3)
}

func checkPadded[T any](t *testing.T, bufs [][]T, n int) {
	t.Helper()
	size := unsafe.Sizeof(*new(T))
	for i, b := range bufs {
		if len(b) != n || cap(b) != n {
			t.Errorf("%T buffer %d has len %d cap %d, want %d", b, i, len(b), cap(b), n)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		hi := lo + uintptr(n)*size
		for j, c := range bufs {
			if start := uintptr(unsafe.Pointer(unsafe.SliceData(c))); j != i && start >= lo && start < hi+64 {
				t.Errorf("%T buffer %d starts %d bytes after buffer %d ends", b, j, start-hi, i)
			}
		}
	}
}
