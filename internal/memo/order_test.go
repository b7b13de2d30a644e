package memo

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/obs"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

// inOrder sets s's mode order (the original mode at each position).
func inOrder(s *Strategy, modes []int) *Strategy {
	s.Modes = modes
	return s
}

func TestPermutedMatchesReference(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 600, 0.8, 401)
	fs := randomFactors(x, 5, 402)
	e, err := NewWithConfig(x, inOrder(Balanced(4), []int{2, 0, 3, 1}), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 4; mode++ {
		out := dense.New(x.Dims[mode], 5)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-8 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
	}
}

// A permuted engine takes the plan's accumulation table by position and
// resolves and reports it by original mode: over order (2,0,1), position 0
// is mode 2, so the mode="2" gauge reads privatize and only mode 2's
// MTTKRP fills the privatized pool.
func TestPermutedAccumByMode(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 400, 0.7, 407)
	fs := randomFactors(x, 4, 408)
	per := []accum.Strategy{accum.Privatize, accum.Scatter, accum.Scatter}
	e, err := NewWithConfig(x, inOrder(Balanced(3), []int{2, 0, 1}),
		Config{Workers: 2, Name: "perm", Accum: accum.Config{PerMode: per}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Instrument(nil, reg)
	for mode := 0; mode < 3; mode++ {
		out := dense.New(x.Dims[mode], 4)
		if err := e.MTTKRP(mode, fs, out); err != nil {
			t.Fatal(err)
		}
		if d := out.MaxAbsDiff(ref.MTTKRPSparse(x, mode, fs)); d > 1e-8 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
		if pooled := reg.Snapshot()[`adatm_accum_pool_bytes{engine="perm"}`] > 0; pooled != (mode == 2) {
			t.Errorf("after mode %d: privatized pool in use = %v", mode, pooled)
		}
	}
	snap := reg.Snapshot()
	for mode, want := range []accum.Strategy{accum.Scatter, accum.Scatter, accum.Privatize} {
		key := fmt.Sprintf(`adatm_accum_strategy{engine="perm",mode="%d"}`, mode)
		if got := accum.Strategy(snap[key]); got != want {
			t.Errorf("%s = %s, want %s", key, got, want)
		}
	}
}

func TestPermutedSweepProtocol(t *testing.T) {
	x := tensor.RandomClustered(5, 10, 500, 0.7, 403)
	fs := randomFactors(x, 4, 404)
	rng := rand.New(rand.NewSource(405))
	s := inOrder(Balanced(5), []int{4, 1, 3, 0, 2})
	e, err := NewWithConfig(x, s, Config{Workers: 2, RetainBuffers: true, StreamRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	order := s.SweepOrder()
	for iter := 0; iter < 2; iter++ {
		for _, mode := range order {
			out := dense.New(x.Dims[mode], 4)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("iter %d mode %d: diff %g", iter, mode, d)
			}
			fs[mode] = dense.Random(x.Dims[mode], 4, rng)
			e.FactorUpdated(mode)
		}
	}
}

// Sweeping in the strategy's order must keep the once-per-iteration
// property: steady-state per-sweep ops equal PerIterationOps.
func TestPermutedOncePerIteration(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.9, 406)
	fs := randomFactors(x, 8, 407)
	s := inOrder(Balanced(4), []int{3, 1, 0, 2})
	e, err := NewWithConfig(x, s, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(order []int) int64 {
		e.ResetStats()
		for _, mode := range order {
			out := dense.New(x.Dims[mode], 8)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
		return e.Stats().HadamardOps
	}
	sweep(s.SweepOrder()) // fill caches
	got := sweep(s.SweepOrder())
	if want := e.PerIterationOps(8); got != want {
		t.Errorf("ordered sweep ops %d != once-per-node %d", got, want)
	}
	// Sweeping in the WRONG (natural) order must cost at least as much.
	natural := []int{0, 1, 2, 3}
	sweep(natural)
	if wrong := sweep(natural); wrong < got {
		t.Errorf("natural-order sweep %d unexpectedly cheaper than ordered %d", wrong, got)
	}
}

func TestPermutedValidation(t *testing.T) {
	x := tensor.RandomUniform(3, 6, 50, 408)
	bad := [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}, {-1, 0, 1}, {}}
	for _, perm := range bad {
		s := inOrder(Balanced(3), perm)
		if err := s.Validate(3); err == nil {
			t.Errorf("order %v accepted by Validate", perm)
		}
		if _, err := NewWithConfig(x, s, Config{Workers: 1}); err == nil {
			t.Errorf("order %v accepted by NewWithConfig", perm)
		}
	}
	// The order belongs to the root: a child carrying one is malformed.
	s := Balanced(3)
	s.Children[0].Modes = []int{1, 0}
	if err := s.Validate(3); err == nil {
		t.Error("order on a non-root node accepted")
	}
}

// The identity order is the natural one: same tree, same bits.
func TestPermutedIdentityEqualsPlain(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 300, 0.6, 409)
	fs := randomFactors(x, 4, 410)
	plain, _ := New(x, Balanced(4), 1, "")
	ordered, err := New(x, inOrder(Balanced(4), []int{0, 1, 2, 3}), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 4; mode++ {
		a := dense.New(x.Dims[mode], 4)
		b := dense.New(x.Dims[mode], 4)
		plain.MTTKRP(mode, fs, a)
		ordered.MTTKRP(mode, fs, b)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("mode %d: identity order differs from nil at %d: %v vs %v", mode, i, b.Data[i], a.Data[i])
			}
		}
	}
}

// Property: random orders with random strategies stay correct under the
// ordered-sweep ALS protocol.
func TestPermutedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(4)
		perm := rng.Perm(order)
		x := tensor.RandomClustered(order, 6+rng.Intn(8), 200, rng.Float64(), seed)
		fs := make([]*dense.Matrix, order)
		for m := range fs {
			fs[m] = dense.Random(x.Dims[m], 3, rng)
		}
		s := inOrder(randomBinary(order, rng), perm)
		e, err := NewWithConfig(x, s, Config{Workers: 2, StreamRoot: rng.Intn(2) == 0})
		if err != nil {
			return false
		}
		for _, mode := range s.SweepOrder() {
			out := dense.New(x.Dims[mode], 3)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if out.MaxAbsDiff(want) > 1e-8 {
				return false
			}
			fs[mode] = dense.Random(x.Dims[mode], 3, rng)
			e.FactorUpdated(mode)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
