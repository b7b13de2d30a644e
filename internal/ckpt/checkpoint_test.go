package ckpt

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"adatm/internal/dense"
)

// randomCheckpoint builds a structurally valid checkpoint of the given
// order with random shapes and values.
func randomCheckpoint(rng *rand.Rand, order int) *Checkpoint {
	r := 1 + rng.Intn(6)
	c := &Checkpoint{
		Iter:        1 + rng.Intn(100),
		Fit:         rng.Float64(),
		Lambda:      make([]float64, r),
		Seed:        rng.Int63(),
		Fingerprint: "deadbeefdeadbeef",
	}
	for i := range c.Lambda {
		c.Lambda[i] = rng.NormFloat64()
	}
	for m := 0; m < order; m++ {
		rows := 1 + rng.Intn(12)
		f := dense.New(rows, r)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		c.Factors = append(c.Factors, f)
	}
	for i := 0; i < rng.Intn(5); i++ {
		c.FitTrace = append(c.FitTrace, rng.Float64())
	}
	return c
}

// TestCheckpointRoundTripProperty round-trips random checkpoints over
// orders 3-5 and demands bit-exact equality: resume correctness depends on
// the factors surviving serialization unchanged.
func TestCheckpointRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for order := 3; order <= 5; order++ {
		for trial := 0; trial < 25; trial++ {
			c := randomCheckpoint(rng, order)
			var buf bytes.Buffer
			if err := Write(&buf, c); err != nil {
				t.Fatalf("order %d trial %d: write: %v", order, trial, err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("order %d trial %d: read: %v", order, trial, err)
			}
			if got.Iter != c.Iter || got.Fit != c.Fit || got.Seed != c.Seed || got.Fingerprint != c.Fingerprint {
				t.Fatalf("order %d trial %d: header changed", order, trial)
			}
			for i := range c.Lambda {
				if got.Lambda[i] != c.Lambda[i] {
					t.Fatalf("order %d trial %d: lambda[%d] %v != %v", order, trial, i, got.Lambda[i], c.Lambda[i])
				}
			}
			for m := range c.Factors {
				if d := got.Factors[m].MaxAbsDiff(c.Factors[m]); d != 0 {
					t.Fatalf("order %d trial %d: factor %d differs by %g", order, trial, m, d)
				}
			}
			for i := range c.FitTrace {
				if got.FitTrace[i] != c.FitTrace[i] {
					t.Fatalf("order %d trial %d: fit trace changed", order, trial)
				}
			}
		}
	}
}

func TestCheckpointRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, bad := range poison {
		c := randomCheckpoint(rng, 3)
		c.Factors[1].Data[2] = bad
		var buf bytes.Buffer
		if err := Write(&buf, c); err == nil {
			t.Errorf("factor poisoned with %g accepted on write", bad)
		} else if !strings.Contains(err.Error(), "factor 1") {
			t.Errorf("error does not name the factor: %v", err)
		}

		c = randomCheckpoint(rng, 3)
		c.Lambda[0] = bad
		buf.Reset()
		if err := Write(&buf, c); err == nil || !strings.Contains(err.Error(), "lambda[0]") {
			t.Errorf("poisoned lambda: err = %v", err)
		}
	}
	// A poisoned file (bypassing Write's validation) must be rejected on Read.
	in := `{"format":"adatm-ckpt/v1","iter":3,"fit":0.5,"lambda":[1],` +
		`"factors":[{"rows":2,"cols":1,"data":[1,"NaN"]}],"fingerprint":"00"}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Error("NaN-bearing checkpoint accepted on read")
	}
}

func TestCheckpointReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":     "hello",
		"wrong format": `{"format":"adatm-cp/v1","iter":1,"lambda":[1],"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
		"zero iter":    `{"format":"adatm-ckpt/v1","iter":0,"lambda":[1],"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
		"no factors":   `{"format":"adatm-ckpt/v1","iter":1,"lambda":[1],"factors":[]}`,
		"ragged":       `{"format":"adatm-ckpt/v1","iter":1,"lambda":[1],"factors":[{"rows":2,"cols":1,"data":[1]}]}`,
		"bad lambda":   `{"format":"adatm-ckpt/v1","iter":1,"lambda":[1,2],"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
		"zero cols":    `{"format":"adatm-ckpt/v1","iter":1,"lambda":[],"factors":[{"rows":5,"cols":0,"data":[]}]}`,
		"wrapping rows": `{"format":"adatm-ckpt/v1","iter":1,"lambda":[1,2,3,4],` +
			`"factors":[{"rows":4611686018427387904,"cols":4,"data":[]}]}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	dims := []int{4, 3, 2}
	inds := [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 1}}
	vals := []float64{1, 2, 3}
	meta := Meta{Rank: 8, Ridge: 0.1}
	base := Fingerprint(dims, inds, vals, meta)

	if got := Fingerprint(dims, inds, vals, meta); got != base {
		t.Fatal("fingerprint is not deterministic")
	}
	vals2 := []float64{1, 2, 3.0000001}
	if Fingerprint(dims, inds, vals2, meta) == base {
		t.Error("value change not detected")
	}
	inds2 := [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 0}}
	if Fingerprint(dims, inds2, vals, meta) == base {
		t.Error("index change not detected")
	}
	if Fingerprint([]int{4, 3, 3}, inds, vals, meta) == base {
		t.Error("dims change not detected")
	}
	if Fingerprint(dims, inds, vals, Meta{Rank: 9, Ridge: 0.1}) == base {
		t.Error("rank change not detected")
	}
	if Fingerprint(dims, inds, vals, Meta{Rank: 8, Ridge: 0.2}) == base {
		t.Error("ridge change not detected")
	}
	if Fingerprint(dims, inds, vals, Meta{Rank: 8, Ridge: 0.1, NonNegative: true}) == base {
		t.Error("non-negativity change not detected")
	}
	if Fingerprint(dims, inds, vals, Meta{Rank: 8, Ridge: 0.1, ModeOrder: []int{2, 1, 0}}) == base {
		t.Error("mode order change not detected")
	}
}

// FuzzCheckpointRead feeds arbitrary bytes to the checkpoint decoder. It
// must never panic, and a checkpoint it accepts must write back out and
// decode again to the same state, bit for bit.
func FuzzCheckpointRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, randomCheckpoint(rand.New(rand.NewSource(3)), 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"adatm-ckpt/v1","iter":1,"fit":-0,"lambda":[1],"factors":[{"rows":1,"cols":1,"data":[1]}],"fit_trace":[0.5]}`)
	f.Add(`{"format":"adatm-ckpt/v1","iter":1,"lambda":[],"factors":[{"rows":5,"cols":0,"data":[]}]}`)
	f.Add(`{"format":"adatm-ckpt/v1","iter":1,"lambda":[1,2,3,4],"factors":[{"rows":4611686018427387904,"cols":4,"data":[]}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		c, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, c); err != nil {
			t.Fatalf("accepted checkpoint does not write back: %v", err)
		}
		got, err := Read(&out)
		if err != nil {
			t.Fatalf("written checkpoint does not decode: %v", err)
		}
		if got.Iter != c.Iter || math.Float64bits(got.Fit) != math.Float64bits(c.Fit) ||
			got.Seed != c.Seed || got.Fingerprint != c.Fingerprint {
			t.Fatalf("round trip changed the header: %+v -> %+v", c, got)
		}
		if !sameBits(got.Lambda, c.Lambda) || !sameBits(got.FitTrace, c.FitTrace) || len(got.Factors) != len(c.Factors) {
			t.Fatal("round trip changed λ, the fit trace or the order")
		}
		for m, f := range c.Factors {
			g := got.Factors[m]
			if f.Rows != g.Rows || f.Cols != g.Cols || !sameBits(f.Data, g.Data) {
				t.Fatalf("round trip changed factor %d", m)
			}
		}
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
