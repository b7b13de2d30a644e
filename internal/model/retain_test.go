package model

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"adatm/internal/tensor"
)

// retainCoeffs are fixed roofline constants, so SelectByTime's choice does
// not depend on the host.
var retainCoeffs = Coeffs{NsPerOp: 1, NsPerByte: 0.5, NsPerLock: 20}

// order8 is a tensor whose op-optimal tree keeps more intermediates than
// any two consecutive leaves need: its retained value bytes exceed its
// two-path peak, which separates the retention rule from feasibility.
func order8() *tensor.COO { return tensor.RandomClustered(8, 10, 3000, 0.6, 77) }

func TestRetainUnboundedBudget(t *testing.T) {
	for _, x := range []*tensor.COO{tensor.RandomClustered(4, 14, 3000, 0.6, 77), order8()} {
		opt := Options{Rank: 8, Workers: 4}
		for _, p := range []*Plan{Select(x, opt), SelectByTime(x, opt, retainCoeffs)} {
			if !p.Retain {
				t.Errorf("order %d, by time %v: unbounded plan does not retain", p.Order, p.ByTime)
			}
			if pr := p.Chosen.Pred; pr.RetainedValueBytes < pr.PeakValueBytes {
				t.Errorf("order %d: retained %d bytes below the peak %d", p.Order, pr.RetainedValueBytes, pr.PeakValueBytes)
			}
		}
	}
}

// A budget that fits the chosen tree's two-path peak but not its retained
// sum keeps the same feasible choice and turns retention off; one that fits
// the retained sum turns it on.
func TestRetainTightBudget(t *testing.T) {
	x := order8()
	for _, sel := range []func(Options) *Plan{
		func(o Options) *Plan { return Select(x, o) },
		func(o Options) *Plan { return SelectByTime(x, o, retainCoeffs) },
	} {
		free := sel(Options{Rank: 8, Workers: 4})
		c := free.Chosen.Pred
		if c.RetainedValueBytes <= c.PeakValueBytes {
			t.Fatalf("fixture: retained %d not above peak %d", c.RetainedValueBytes, c.PeakValueBytes)
		}
		for _, tc := range []struct {
			budget int64
			retain bool
		}{
			{c.IndexBytes + c.PeakValueBytes, false},
			{c.IndexBytes + c.RetainedValueBytes - 1, false},
			{c.IndexBytes + c.RetainedValueBytes, true},
		} {
			p := sel(Options{Rank: 8, Workers: 4, Budget: tc.budget})
			if p.BudgetFallback || !p.Chosen.Feasible || p.Chosen.Name != free.Chosen.Name {
				t.Errorf("budget %d: chose %s (feasible %v, fallback %v), want the unbounded choice %s",
					tc.budget, p.Chosen.Name, p.Chosen.Feasible, p.BudgetFallback, free.Chosen.Name)
			}
			if p.Retain != tc.retain {
				t.Errorf("budget %d: Retain = %v, want %v", tc.budget, p.Retain, tc.retain)
			}
		}
	}
}

// Streaming is decided after retention, against the value bytes retention
// leaves: the budget must hold index + value + stream bytes, where the value
// bytes are the retained sum when the plan retains and the two-path peak
// otherwise. It never changes the choice. Once the plan streams, the
// privatized footprint gets only what the stream bytes leave.
func TestStreamBudget(t *testing.T) {
	x := order8()
	free := Select(x, Options{Rank: 8, Workers: 4})
	c := free.Chosen.Pred
	if !free.Stream || c.StreamBytes <= 0 {
		t.Fatalf("unbounded plan: stream %v, %d stream bytes", free.Stream, c.StreamBytes)
	}
	if c.PeakValueBytes+c.StreamBytes < c.RetainedValueBytes || c.PeakValueBytes == c.RetainedValueBytes {
		t.Fatalf("fixture: peak %d + stream %d must reach the retained sum %d, which must exceed the peak",
			c.PeakValueBytes, c.StreamBytes, c.RetainedValueBytes)
	}
	for _, tc := range []struct {
		budget         int64
		retain, stream bool
	}{
		{c.IndexBytes + c.RetainedValueBytes - 1, false, false},
		// Fits the peak plus the stream, but that budget retains, and the
		// retained sum plus the stream does not fit.
		{c.IndexBytes + c.PeakValueBytes + c.StreamBytes, true, false},
		{c.IndexBytes + c.RetainedValueBytes + c.StreamBytes - 1, true, false},
		{c.IndexBytes + c.RetainedValueBytes + c.StreamBytes, true, true},
	} {
		p := Select(x, Options{Rank: 8, Workers: 4, Budget: tc.budget})
		if p.BudgetFallback || p.Chosen.Name != free.Chosen.Name {
			t.Errorf("budget %d: chose %s (fallback %v), want the unbounded choice %s",
				tc.budget, p.Chosen.Name, p.BudgetFallback, free.Chosen.Name)
		}
		if p.Retain != tc.retain || p.Stream != tc.stream {
			t.Errorf("budget %d: Retain %v Stream %v, want %v %v", tc.budget, p.Retain, p.Stream, tc.retain, tc.stream)
		}
	}
	foot := free.Accum[0].FootprintBytes
	for _, tc := range []struct {
		budget   int64
		feasible bool
	}{
		{c.IndexBytes + c.RetainedValueBytes + c.StreamBytes + foot, true},
		{c.IndexBytes + c.RetainedValueBytes + c.StreamBytes + foot - 1, false},
	} {
		p := Select(x, Options{Rank: 8, Workers: 4, Budget: tc.budget})
		if !p.Stream {
			t.Fatalf("budget %d: plan does not stream", tc.budget)
		}
		if got := p.Accum[0].Feasible; got != tc.feasible {
			t.Errorf("budget %d: mode 0 privatized footprint %d feasible = %v, want %v", tc.budget, foot, got, tc.feasible)
		}
	}
}

// When the plan retains, the privatized footprint gets only the budget left
// after the retained bytes: a budget of index + retained + F fits mode 0's
// footprint F exactly, and one byte less does not.
func TestRetainAccumSlack(t *testing.T) {
	x := order8()
	free := Select(x, Options{Rank: 8, Workers: 4})
	c := free.Chosen.Pred
	foot := free.Accum[0].FootprintBytes
	for _, tc := range []struct {
		budget   int64
		feasible bool
	}{
		{c.IndexBytes + c.RetainedValueBytes + foot, true},
		{c.IndexBytes + c.RetainedValueBytes + foot - 1, false},
	} {
		p := Select(x, Options{Rank: 8, Workers: 4, Budget: tc.budget})
		if !p.Retain {
			t.Fatalf("budget %d: plan does not retain", tc.budget)
		}
		if got := p.Accum[0].Feasible; got != tc.feasible {
			t.Errorf("budget %d: mode 0 privatized footprint %d feasible = %v, want %v", tc.budget, foot, got, tc.feasible)
		}
	}
}

// The accumulation table of an unbounded plan does not depend on retention:
// these hashes were taken before the model made the retention decision.
func TestRetainAccumTableUnchanged(t *testing.T) {
	cases := []struct {
		name         string
		x            *tensor.COO
		byOps, byTim uint64
	}{
		{"clustered4", tensor.RandomClustered(4, 14, 3000, 0.6, 77), 0x6d94def12f11a4ed, 0xe51da16abc92bd19},
		{"clustered8", order8(), 0xc2796cbf798626f5, 0x4f59045182357dbd},
		{"short-mode", tensor.Generate(tensor.GenSpec{Dims: []int{3000, 2500, 6}, NNZ: 20000, Skew: []float64{0.4, 0.4, 0}, Seed: 3}),
			0x6d271a390803f9bc, 0xe9b40012021e85a7},
	}
	for _, tc := range cases {
		opt := Options{Rank: 16, Workers: 4}
		for _, pc := range []struct {
			p    *Plan
			want uint64
		}{
			{Select(tc.x, opt), tc.byOps},
			{SelectByTime(tc.x, opt, retainCoeffs), tc.byTim},
		} {
			b, err := json.Marshal(pc.p.Accum)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(b)
			if got := h.Sum64(); got != pc.want {
				t.Errorf("%s (by time %v): accumulation table hash %#x, want %#x", tc.name, pc.p.ByTime, got, pc.want)
			}
		}
	}
}
