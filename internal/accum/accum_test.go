package accum

import (
	"encoding/json"
	"math/rand"
	"testing"

	"adatm/internal/dense"
)

func TestStrategyParseStringRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, Scatter, Privatize} {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Fatalf("Parse(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if s, err := Parse(""); err != nil || s != Auto {
		t.Fatalf("Parse(\"\") = %v, %v; want Auto", s, err)
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(\"bogus\") succeeded; want error")
	}
}

func TestStrategyJSON(t *testing.T) {
	b, err := json.Marshal(Privatize)
	if err != nil || string(b) != `"privatize"` {
		t.Fatalf("Marshal(Privatize) = %s, %v", b, err)
	}
	var s Strategy
	if err := json.Unmarshal([]byte(`"scatter"`), &s); err != nil || s != Scatter {
		t.Fatalf("Unmarshal scatter = %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`7`), &s); err == nil {
		t.Fatal("Unmarshal of a number succeeded; want error")
	}
}

// TestPoolReduce checks the privatized cycle end to end: partial sums written
// by a subset of workers must fold into exactly their element-wise sum, with
// stale data from earlier epochs ignored.
func TestPoolReduce(t *testing.T) {
	const workers, rows, r = 4, 37, 9
	p := NewPool(workers)
	out := dense.New(rows, r)

	// Epoch 1: all workers write garbage so epoch 2 must re-zero.
	p.Begin(rows, r)
	for w := 0; w < workers; w++ {
		m := p.Acquire(w)
		for i := range m.Data {
			m.Data[i] = -1e9
		}
	}
	p.Reduce(out, workers)

	// Epoch 2: only workers 1 and 3 participate.
	p.Begin(rows, r)
	rng := rand.New(rand.NewSource(42))
	want := make([]float64, rows*r)
	for _, w := range []int{1, 3} {
		m := p.Acquire(w)
		for i := range m.Data {
			v := rng.Float64()
			m.Data[i] = v
			want[i] += v
		}
	}
	p.Reduce(out, workers)
	for i, v := range out.Data {
		if diff := v - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("out[%d] = %g, want %g", i, v, want[i])
		}
	}

	// Epoch 3: nobody writes — Reduce must zero the output.
	out.Data[0] = 123
	p.Begin(rows, r)
	p.Reduce(out, workers)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("idle-epoch out[%d] = %g, want 0", i, v)
		}
	}
}

// TestPoolRegrow pins the arena behaviour: growing reallocates once, and
// shrinking or repeating a shape reuses the backing store.
func TestPoolRegrow(t *testing.T) {
	p := NewPool(2)
	p.Begin(8, 4)
	if p.Grows() != 1 {
		t.Fatalf("grows after first Begin = %d, want 1", p.Grows())
	}
	p.Begin(1024, 16) // grow
	if p.Grows() != 2 {
		t.Fatalf("grows after larger Begin = %d, want 2", p.Grows())
	}
	wantBytes := p.Bytes()
	p.Begin(8, 4)     // shrink: reuse
	p.Begin(1024, 16) // high-water repeat: reuse
	if p.Grows() != 2 {
		t.Fatalf("grows after reuse = %d, want 2", p.Grows())
	}
	if p.Bytes() != wantBytes {
		t.Fatalf("bytes changed on reuse: %d != %d", p.Bytes(), wantBytes)
	}

	// Correctness across the regrow: single worker writing ones.
	out := dense.New(1024, 16)
	p.Begin(1024, 16)
	m := p.Acquire(0)
	for i := range m.Data {
		m.Data[i] = 1
	}
	p.Reduce(out, 2)
	for i, v := range out.Data {
		if v != 1 {
			t.Fatalf("out[%d] = %g, want 1", i, v)
		}
	}
}

// TestChooseCrossover pins the model's headline behaviour from the paper
// framing: short target modes privatize, tall ones scatter, and a budget
// that cannot fit the private copies forces the scatter.
func TestChooseCrossover(t *testing.T) {
	short := Input{Rows: 16, NNZ: 1 << 20, Rank: 16, Workers: 8}
	if ch := Choose(short, Costs{}); ch.Strategy != Privatize {
		t.Fatalf("short mode chose %v (scatter=%.0fns privatize=%.0fns); want privatize",
			ch.Strategy, ch.ScatterNS, ch.PrivatizeNS)
	}
	tall := Input{Rows: 1 << 20, NNZ: 1 << 20, Rank: 16, Workers: 8}
	if ch := Choose(tall, Costs{}); ch.Strategy != Scatter {
		t.Fatalf("tall mode chose %v (scatter=%.0fns privatize=%.0fns); want scatter",
			ch.Strategy, ch.ScatterNS, ch.PrivatizeNS)
	}
	// Same short mode but a budget below the 16×16×8×8-byte footprint.
	tight := short
	tight.Budget = 1024
	if ch := Choose(tight, Costs{}); ch.Strategy != Scatter || ch.Feasible {
		t.Fatalf("budget-bound mode chose %v feasible=%v; want scatter, infeasible",
			ch.Strategy, ch.Feasible)
	}
	// Lock-free engines (memo leaf) privatize only when the mode starves
	// their row-parallel scatter (rows < workers): the win is parallel
	// width, not lock elision.
	lf := Input{Rows: 4, NNZ: 1 << 20, Rank: 16, Workers: 8, LockFree: true}
	if ch := Choose(lf, Costs{}); ch.Strategy != Privatize {
		t.Fatalf("lock-free starved mode chose %v (scatter=%.0fns privatize=%.0fns); want privatize",
			ch.Strategy, ch.ScatterNS, ch.PrivatizeNS)
	}
	wide := lf
	wide.Rows = 1 << 16
	if ch := Choose(wide, Costs{}); ch.Strategy != Scatter {
		t.Fatalf("lock-free wide mode chose %v; want scatter", ch.Strategy)
	}
}

func TestResolverCachingAndOverrides(t *testing.T) {
	// Per-mode table wins over the model.
	r := NewResolver(3, Config{PerMode: []Strategy{Scatter, Privatize, Auto}})
	if s := r.Resolve(1, 1<<20, 1<<20, 16, 8); s != Privatize {
		t.Fatalf("per-mode resolve = %v, want privatize", s)
	}
	// Auto entry falls through to the model and caches per rank.
	if s := r.Resolve(2, 16, 1<<20, 16, 8); s != Privatize {
		t.Fatalf("auto short-mode resolve = %v, want privatize", s)
	}
	if s := r.Resolved(2); s != Privatize {
		t.Fatalf("Resolved(2) = %v, want privatize", s)
	}
	// A rank change re-evaluates rather than serving the stale entry.
	if s := r.Resolve(2, 16, 1<<20, 32, 8); s != Privatize {
		t.Fatalf("rank-change resolve = %v, want privatize", s)
	}
	if s := r.Resolved(0); s != Scatter {
		t.Fatalf("Resolved(0) = %v, want scatter (per-mode pin)", s)
	}
	if s := r.Resolved(2); s != Privatize {
		t.Fatalf("Resolved(2) after rank change = %v, want privatize", s)
	}
}
