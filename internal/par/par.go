// Package par provides small shared-memory parallelism helpers used by every
// numeric kernel in the repository: a blocked parallel-for, a parallel-range
// variant that hands each worker one contiguous chunk, and a striped lock set
// for scatter-style accumulation.
//
// The helpers intentionally mirror the OpenMP loop constructs the original
// system was written with: static chunking, no work stealing, and a worker
// count that defaults to GOMAXPROCS but can be overridden per call so that
// thread-scaling experiments can pin the parallel width.
package par

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"adatm/internal/obs"
)

// MaxWorkers returns the default parallel width, GOMAXPROCS(0).
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a requested worker count against the amount of
// available work. workers <= 0 selects the default width.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs body(i) for every i in [0, n) using the given number of workers.
// Iterations are distributed in contiguous blocks (static schedule). body
// must be safe to call concurrently for distinct i.
func For(n, workers int, body func(i int)) {
	ForRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange splits [0, n) into one contiguous [lo, hi) block per worker and
// runs body on each block concurrently. It is the building block for kernels
// that want per-worker private state allocated once per block.
func ForRange(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	// Distribute the remainder one extra element to the first n%workers
	// blocks so block sizes differ by at most one.
	q, r := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForWorker is like ForRange but also passes the worker id, for kernels that
// index into preallocated per-worker scratch buffers.
func ForWorker(n, workers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	q, r := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// chunkTracer, when set, receives one span per executed ForChunks chunk on
// track worker+1, making scheduler imbalance directly visible in a trace
// viewer: an idle worker shows as a gap in its track. A package-level hook
// (rather than a per-call parameter) keeps every existing kernel call site
// untouched and the disabled cost at one atomic pointer load per chunk loop.
var chunkTracer atomic.Pointer[obs.Tracer]

// chunkSpanName labels the per-chunk spans in exported traces.
const chunkSpanName = "par.chunk"

// SetChunkTracer installs (or, with nil, removes) the tracer that records
// per-chunk execution spans from ForChunks. Safe to call concurrently with
// running kernels.
func SetChunkTracer(t *obs.Tracer) { chunkTracer.Store(t) }

// ImbalanceRatio measures the load imbalance of a weighted chunking: the
// heaviest chunk's weight divided by the ideal per-chunk share total/nchunks.
// 1.0 is a perfect split; the ratio is also the parallel slowdown an
// otherwise-perfect schedule suffers from the heaviest chunk. Returns 1 for
// degenerate inputs (no items, zero total weight).
func ImbalanceRatio(prefix []int64, bounds []int) float64 {
	nchunks := len(bounds) - 1
	if nchunks <= 0 || len(prefix) == 0 {
		return 1
	}
	total := prefix[len(prefix)-1]
	if total <= 0 {
		return 1
	}
	var heaviest int64
	for c := 0; c < nchunks; c++ {
		w := prefix[bounds[c+1]] - prefix[bounds[c]]
		if w > heaviest {
			heaviest = w
		}
	}
	return float64(heaviest) * float64(nchunks) / float64(total)
}

// WeightedBounds splits the n items described by a prefix-sum array
// (len n+1, prefix[i] = total weight of items [0, i)) into at most nchunks
// contiguous ranges of roughly equal weight. The returned boundary array b
// has b[0] = 0 and b[len(b)-1] = n; chunk c spans [b[c], b[c+1]) and may be
// empty when a single item outweighs a whole chunk share.
//
// This is the load-balancing primitive of the kernel layer: fiber- and
// reduction-grouped kernels have wildly skewed per-element cost, so the
// schedulers chunk by nonzero weight (typically workers × 8 chunks) instead
// of by element count.
func WeightedBounds(prefix []int64, nchunks int) []int {
	n := len(prefix) - 1
	if n <= 0 {
		return []int{0}
	}
	if nchunks > n {
		nchunks = n
	}
	if nchunks < 1 {
		nchunks = 1
	}
	total := prefix[n]
	bounds := make([]int, nchunks+1)
	bounds[nchunks] = n
	if total <= 0 {
		// Degenerate all-zero weights: weight targets cannot separate the
		// items (every interior bound would collapse to 0 and the last chunk
		// would carry all n items), so fall back to an even item split.
		for c := 1; c < nchunks; c++ {
			bounds[c] = c * n / nchunks
		}
		return bounds
	}
	for c := 1; c < nchunks; c++ {
		target := chunkTarget(total, c, nchunks)
		// First boundary position whose prefix weight reaches the target,
		// clamped to keep the boundaries monotone.
		i := sort.Search(n, func(i int) bool { return prefix[i] >= target })
		if i < bounds[c-1] {
			i = bounds[c-1]
		}
		bounds[c] = i
	}
	return bounds
}

// chunkTarget returns ⌊c·total/nchunks⌋ exactly. Scaling before dividing is
// what keeps consecutive targets ⌈total/nchunks⌉ apart at most — dividing
// first (total/nchunks·c) truncates the per-chunk share and piles the
// accumulated rounding loss onto the final chunk (up to nchunks-1 extra
// weight units per chunk share, a measured 3.5x imbalance at 1000 items /
// 64 chunks). Weights are nnz counts, so c·total can exceed int64 only for
// astronomically large tensors; past 2^40 the product is routed through a
// 128-bit multiply/divide instead of risking overflow.
func chunkTarget(total int64, c, nchunks int) int64 {
	if total <= 1<<40 {
		return int64(c) * total / int64(nchunks)
	}
	// hi < nchunks because c < nchunks and total < 2^63, so Div64 cannot
	// trap and the quotient fits in int64.
	hi, lo := bits.Mul64(uint64(c), uint64(total))
	q, _ := bits.Div64(hi, lo, uint64(nchunks))
	return int64(q)
}

// ForChunks runs body over precomputed chunk boundaries (the WeightedBounds
// format) with a dynamic schedule: workers take the next chunk number from
// a shared atomic counter, and body receives the worker id so kernels can
// index into preallocated per-worker scratch (e.g. a kernel.Arena). Empty
// chunks are skipped. With one worker the chunks run inline on the calling
// goroutine, so the call performs no allocation — the property the
// steady-state MTTKRP regression tests pin down.
func ForChunks(bounds []int, workers int, body func(worker, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 {
		return
	}
	workers = clampWorkers(workers, nchunks)
	tr := chunkTracer.Load()
	if workers == 1 {
		for c := 0; c < nchunks; c++ {
			if bounds[c] < bounds[c+1] {
				sp := tr.StartSpan(chunkSpanName, 1)
				body(0, bounds[c], bounds[c+1])
				sp.End()
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < nchunks; c = int(next.Add(1) - 1) {
				if bounds[c] < bounds[c+1] {
					sp := tr.StartSpan(chunkSpanName, int32(w)+1)
					body(w, bounds[c], bounds[c+1])
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
}

// PerWorker returns one n-element buffer per worker, each cut from its own
// allocation with at least a 64-byte cache line of unused elements on
// either side, so no two workers' buffers, and no other allocation, share a
// line. Kernels that rewrite a small per-worker buffer for every nonzero
// need this: allocated back to back, two workers' 48-byte buffers of slice
// headers shared a line, and that false sharing made the two-worker
// striped scatter about three times slower (BenchmarkMTTKRPAccum long256k,
// coo and hicoo).
func PerWorker[T any](workers, n int) [][]T {
	var zero T
	pad := 0
	if size := int(unsafe.Sizeof(zero)); size > 0 {
		pad = (64 + size - 1) / size
	}
	bufs := make([][]T, workers)
	for i := range bufs {
		bufs[i] = make([]T, n+2*pad)[pad : pad+n : pad+n]
	}
	return bufs
}

// paddedMutex spaces adjacent stripes one cache line apart. A bare
// sync.Mutex is 8 bytes, so an unpadded []sync.Mutex packs 8 stripes per
// 64-byte line and every lock acquisition invalidates its seven neighbours
// on other cores — false sharing that BenchmarkStripesScatter measures as a
// multiple on contended scatters.
type paddedMutex struct {
	mu sync.Mutex
	_  [64 - 8]byte
}

// Stripes is a fixed pool of mutexes used to protect scatter updates into a
// large row-indexed array without one lock per row. Rows hash to stripes by
// low bits, so the stripe count must be a power of two.
type Stripes struct {
	locks []paddedMutex
	mask  uint32
}

// NewStripes creates a stripe set with at least n locks, rounded up to a
// power of two (minimum 1).
func NewStripes(n int) *Stripes {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Stripes{locks: make([]paddedMutex, size), mask: uint32(size - 1)}
}

// maxStripes caps StripesFor: past a few thousand stripes the collision
// probability is negligible and the mutex pool only wastes cache.
const maxStripes = 8192

// StripesFor sizes a stripe set for scatter updates into rows output rows:
// the next power of two at or above rows, capped at 8192 and never below 1.
// Sizing from the actual output height (instead of a fixed pool) keeps the
// collision rate flat as tensors grow while bounding the lock footprint.
func StripesFor(rows int) *Stripes {
	n := rows
	if n > maxStripes {
		n = maxStripes
	}
	return NewStripes(n)
}

// EnsureStripes returns a stripe set sized for scatter updates into rows
// output rows, reusing s when it is already big enough (or already at the
// stripe cap). This is the grow-on-demand step every scatter engine runs at
// kernel entry; it was previously copy-pasted per engine.
func EnsureStripes(s *Stripes, rows int) *Stripes {
	if s == nil || (s.Len() < rows && s.Len() < maxStripes) {
		return StripesFor(rows)
	}
	return s
}

// Lock acquires the stripe owning row i.
func (s *Stripes) Lock(i int32) { s.locks[uint32(i)&s.mask].mu.Lock() }

// Unlock releases the stripe owning row i.
func (s *Stripes) Unlock(i int32) { s.locks[uint32(i)&s.mask].mu.Unlock() }

// Len reports the number of stripes.
func (s *Stripes) Len() int { return len(s.locks) }
