package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"adatm/internal/audit"
	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/health"
	"adatm/internal/memo"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// This file is an *external* test package on purpose: it exercises dist
// against cpd.Run baselines, and cpd transitively imports dist (via
// audit → model → dist for partition selection), so an internal test
// package would be an import cycle.

func partitioners(x *tensor.COO, procs int) []*dist.Partition {
	return []*dist.Partition{
		dist.RandomPartition(x, procs, 1),
		dist.MediumGrainPartition(x, procs),
		dist.FineGrainGreedyPartition(x, procs, 2),
	}
}

func cooFactory(shard *tensor.COO) engine.Engine { return coo.New(shard, 1) }

// runDist runs cpd.RunDist over the chan transport with one shard engine
// per process from factory.
func runDist(t *testing.T, x *tensor.COO, part *dist.Partition, factory func(*tensor.COO) engine.Engine, opt cpd.Options) *cpd.DistResult {
	t.Helper()
	tr := dist.NewChanTransport(part.P)
	defer tr.Close()
	got, err := cpd.RunDist(x, dist.NewCluster(x, part, factory), tr, opt)
	if err != nil {
		t.Fatalf("%s P=%d: %v", part.Name, part.P, err)
	}
	return got
}

// Full sharded CP-ALS (cpd.RunDist over memo shards) must match the
// shared-memory solver's trajectory from identical initial factors.
func TestDistributedALSMatchesShared(t *testing.T) {
	x := tensor.RandomClustered(3, 18, 1200, 0.6, 605)
	rng := rand.New(rand.NewSource(606))
	init := make([]*dense.Matrix, 3)
	for m := range init {
		init[m] = dense.Random(x.Dims[m], 4, rng)
	}
	shared, err := cpd.Run(x, csf.NewAllMode(x, 1), cpd.Options{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range partitioners(x, 6) {
		got := runDist(t, x, p, shardEngines(t, "memo", 3), cpd.Options{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init})
		if math.Abs(got.Fit-shared.Fit) > 1e-8 {
			t.Errorf("%s: distributed fit %.12f vs shared %.12f", p.Name, got.Fit, shared.Fit)
		}
	}
}

// conformanceTol is the agreement bound the tentpole promises: the
// distributed solver's fold/reduce trees are fixed in process order and the
// owner-side solves are row-identical to the single-node path, so the only
// divergence from the single-node loop over the same shard summation is
// float reassociation of the norm/Gram partial sums (~1e-16 per entry,
// amplified once per sweep by the conditioning of the Gram-Hadamard system).
const conformanceTol = 1e-12

// crossEngineFitTol bounds the fit against a single-node run with an
// *independent* full-tensor engine: engine-level MTTKRP summation orders
// differ, and the solve amplifies that reassociation by κ(H), so raw factor
// entries only agree to ~κ·ε. The fit, a normalized global functional,
// cancels most of it.
const crossEngineFitTol = 1e-9

func shardEngines(t *testing.T, kind string, order int) func(*tensor.COO) engine.Engine {
	t.Helper()
	return func(s *tensor.COO) engine.Engine {
		if s.NNZ() == 0 {
			return coo.New(s, 1)
		}
		switch kind {
		case "coo":
			return coo.New(s, 1)
		case "csf":
			return csf.NewAllMode(s, 1)
		case "memo":
			e, err := memo.New(s, memo.Balanced(order), 1, "")
			if err != nil {
				t.Fatal(err)
			}
			return e
		default:
			t.Fatalf("unknown shard engine %q", kind)
			return nil
		}
	}
}

// checkConformance runs cpd.Run once per fixture (memoized by the caller)
// and asserts the distributed result matches fit, λ, and every factor
// entry within conformanceTol.
func checkConformance(t *testing.T, label string, want *cpd.Result, got *cpd.DistResult) {
	t.Helper()
	if math.Abs(got.Fit-want.Fit) > conformanceTol {
		t.Errorf("%s: fit %.15f vs single-node %.15f", label, got.Fit, want.Fit)
	}
	if got.Iters != want.Iters || got.Converged != want.Converged {
		t.Errorf("%s: trajectory diverged: iters %d/%v vs %d/%v",
			label, got.Iters, got.Converged, want.Iters, want.Converged)
	}
	for j := range want.Lambda {
		if math.Abs(got.Lambda[j]-want.Lambda[j]) > conformanceTol*(1+math.Abs(want.Lambda[j])) {
			t.Errorf("%s: lambda[%d] %g vs %g", label, j, got.Lambda[j], want.Lambda[j])
		}
	}
	for m, f := range want.Factors {
		if d := got.Factors[m].MaxAbsDiff(f); d > conformanceTol {
			t.Errorf("%s: factor %d max diff %g", label, m, d)
		}
	}
}

func conformanceFixture(t *testing.T) (*tensor.COO, cpd.Options) {
	t.Helper()
	x := tensor.RandomClustered(3, 16, 700, 0.6, 701)
	// Zero-mean initial factors keep the Gram-Hadamard system well away
	// from rank-one (the all-positive dense.Random init makes every column
	// nearly parallel, so κ(H) blows up and amplifies even 1-ulp
	// reassociation differences past the conformance bound).
	rng := rand.New(rand.NewSource(702))
	init := make([]*dense.Matrix, x.Order())
	for m := range init {
		init[m] = dense.New(x.Dims[m], 4)
		for i := range init[m].Data {
			init[m].Data[i] = rng.NormFloat64()
		}
	}
	return x, cpd.Options{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init, TrackFit: true}
}

// singleNodeBaseline runs the shared-memory cpd.Run over the *same* shard
// summation (foldEngine folds per-shard partials in process order, which
// is what cpd.RunDist's owners do) so the comparison isolates the
// distributed protocol — fold routing, owner-side solves, reduce trees —
// from engine-level MTTKRP summation order.
func singleNodeBaseline(t *testing.T, x *tensor.COO, part *dist.Partition, kind string, opt cpd.Options) *cpd.Result {
	t.Helper()
	want, err := cpd.Run(x, newFoldEngine(x, part, shardEngines(t, kind, x.Order())), opt)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// foldEngine is one engine over the sharded summation: each non-empty
// shard's MTTKRP partial, added into the output in process order.
type foldEngine struct {
	shards []engine.Engine
}

func newFoldEngine(x *tensor.COO, part *dist.Partition, factory func(*tensor.COO) engine.Engine) *foldEngine {
	e := &foldEngine{}
	for _, s := range dist.Shards(x, part) {
		if s.NNZ() > 0 {
			e.shards = append(e.shards, factory(s))
		}
	}
	return e
}

func (e *foldEngine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	partial := dense.New(out.Rows, out.Cols)
	out.Zero()
	for _, s := range e.shards {
		if err := s.MTTKRP(mode, factors, partial); err != nil {
			return err
		}
		for i, v := range partial.Data {
			out.Data[i] += v
		}
	}
	return nil
}

func (e *foldEngine) FactorUpdated(mode int) {
	for _, s := range e.shards {
		s.FactorUpdated(mode)
	}
}

func (e *foldEngine) Name() string        { return "fold" }
func (e *foldEngine) Stats() engine.Stats { return engine.Stats{} }
func (e *foldEngine) ResetStats()         {}

// The distributive law, end to end: at order 4 and P=7 the sharded solver
// reaches the fit of a single-node run over one full-tensor engine, for
// every partitioner.
func TestClusterMTTKRPEquivalence(t *testing.T) {
	x := tensor.RandomClustered(4, 15, 900, 0.8, 603)
	opt := cpd.Options{Rank: 5, MaxIters: 4, Tol: 1e-14, Init: zeroMeanInit(x, 5, 604)}
	want, err := cpd.Run(x, coo.New(x, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range partitioners(x, 7) {
		got := runDist(t, x, p, cooFactory, opt)
		if d := math.Abs(got.Fit - want.Fit); d > crossEngineFitTol {
			t.Errorf("%s: fit %.15f vs single-node %.15f (diff %g)", p.Name, got.Fit, want.Fit, d)
		}
	}
}

// Property: the sharded solver reaches the single-node fit for random
// partitions of random tensors of order 3 to 5 over 2 to 10 processes.
func TestClusterEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(3)
		procs := 2 + rng.Intn(9)
		x := tensor.RandomClustered(order, 6+rng.Intn(10), 250, rng.Float64(), seed)
		opt := cpd.Options{Rank: 3, MaxIters: 2, Tol: 1e-14, Init: zeroMeanInit(x, 3, seed)}
		want, err := cpd.Run(x, coo.New(x, 1), opt)
		if err != nil {
			t.Fatal(err)
		}
		got := runDist(t, x, dist.RandomPartition(x, procs, seed+1), cooFactory, opt)
		return math.Abs(got.Fit-want.Fit) <= crossEngineFitTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// zeroMeanInit draws standard-normal initial factors, which keep the
// Gram-Hadamard systems well conditioned (see conformanceFixture).
func zeroMeanInit(x *tensor.COO, rank int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	init := make([]*dense.Matrix, x.Order())
	for m := range init {
		init[m] = dense.New(x.Dims[m], rank)
		for i := range init[m].Data {
			init[m].Data[i] = rng.NormFloat64()
		}
	}
	return init
}

// TestDistRunConformance: cpd.RunDist over 1/2/4/7 processes × {coo,csf,memo}
// shard engines on the in-process transport reproduces the single-node
// cpd.Run trajectory within 1e-12, for every partitioner. The fit is also
// checked against a single-node run with an independent full-tensor engine.
func TestDistRunConformance(t *testing.T) {
	x, opt := conformanceFixture(t)
	indep, err := cpd.Run(x, coo.New(x, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 7} {
		parts := partitioners(x, procs)
		for ki, kind := range []string{"coo", "csf", "memo"} {
			part := parts[ki%len(parts)]
			want := singleNodeBaseline(t, x, part, kind, opt)
			c := dist.NewCluster(x, part, shardEngines(t, kind, x.Order()))
			tr := dist.NewChanTransport(procs)
			got, err := cpd.RunDist(x, c, tr, opt)
			tr.Close()
			if err != nil {
				t.Fatalf("P=%d %s %s: %v", procs, kind, part.Name, err)
			}
			label := fmt.Sprintf("P=%d %s %s", procs, kind, part.Name)
			checkConformance(t, label, want, got)
			if d := math.Abs(got.Fit - indep.Fit); d > crossEngineFitTol {
				t.Errorf("%s: fit %.15f vs independent engine %.15f (diff %g)", label, got.Fit, indep.Fit, d)
			}
			if procs > 1 && got.Messages == 0 {
				t.Errorf("P=%d %s: no messages sent", procs, kind)
			}
		}
	}
}

// TestDistRunConformanceTCP: the loopback TCP transport carries the same
// fixed reduction trees, so the trajectory stays within 1e-12 of the
// single-node run for P∈{2,4,7}.
func TestDistRunConformanceTCP(t *testing.T) {
	x, opt := conformanceFixture(t)
	kinds := []string{"coo", "csf", "memo"}
	for pi, procs := range []int{2, 4, 7} {
		kind := kinds[pi]
		part := dist.FineGrainGreedyPartition(x, procs, 2)
		want := singleNodeBaseline(t, x, part, kind, opt)
		c := dist.NewCluster(x, part, shardEngines(t, kind, x.Order()))
		tr, err := dist.NewTCPTransport(procs, dist.TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cpd.RunDist(x, c, tr, opt)
		tr.Close()
		if err != nil {
			t.Fatalf("P=%d %s: %v", procs, kind, err)
		}
		checkConformance(t, fmt.Sprintf("tcp P=%d %s", procs, kind), want, got)
	}
}

// TestDistRunTransportsAgree: the chan and TCP transports must produce
// bit-identical results — the reduction order is fixed by the protocol,
// not by message arrival.
func TestDistRunTransportsAgree(t *testing.T) {
	x, opt := conformanceFixture(t)
	part := dist.MediumGrainPartition(x, 4)
	run := func(tr dist.Transport) *cpd.DistResult {
		t.Helper()
		c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
		got, err := cpd.RunDist(x, c, tr, opt)
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run(dist.NewChanTransport(4))
	tcp, err := dist.NewTCPTransport(4, dist.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b := run(tcp)
	if a.Fit != b.Fit {
		t.Errorf("fit differs across transports: %.17g vs %.17g", a.Fit, b.Fit)
	}
	for m := range a.Factors {
		if d := a.Factors[m].MaxAbsDiff(b.Factors[m]); d != 0 {
			t.Errorf("factor %d differs across transports by %g", m, d)
		}
	}
}

// TestDistRunFitTraceMatches: with TrackFit the whole per-iteration fit
// trajectory must match the single-node trace, not only the endpoint.
func TestDistRunFitTraceMatches(t *testing.T) {
	x, opt := conformanceFixture(t)
	part := dist.RandomPartition(x, 4, 1)
	want := singleNodeBaseline(t, x, part, "coo", opt)
	c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
	tr := dist.NewChanTransport(4)
	defer tr.Close()
	got, err := cpd.RunDist(x, c, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.FitTrace) != len(want.FitTrace) {
		t.Fatalf("trace length %d vs %d", len(got.FitTrace), len(want.FitTrace))
	}
	for i := range want.FitTrace {
		if math.Abs(got.FitTrace[i]-want.FitTrace[i]) > conformanceTol {
			t.Errorf("iter %d: fit %.15f vs %.15f", i+1, got.FitTrace[i], want.FitTrace[i])
		}
	}
}

// TestDistRunValidation: the argument contract errors, including a
// transport/cluster process-count mismatch.
func TestDistRunValidation(t *testing.T) {
	x := tensor.RandomClustered(3, 8, 200, 0.5, 703)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	tr := dist.NewChanTransport(3)
	defer tr.Close()
	if _, err := cpd.RunDist(x, c, tr, cpd.Options{Rank: 4}); err == nil {
		t.Error("P mismatch not rejected")
	}
	tr2 := dist.NewChanTransport(2)
	defer tr2.Close()
	if _, err := cpd.RunDist(x, c, tr2, cpd.Options{Rank: 0}); err == nil {
		t.Error("zero rank not rejected")
	}
}

// TestDistFaultRecoveryConverges: dropped, duplicated, and delayed fold
// messages are recovered by acknowledged retransmission and sequence
// dedup, so the run still reproduces the single-node trajectory exactly —
// faults cost retries, never numerics.
func TestDistFaultRecoveryConverges(t *testing.T) {
	x, opt := conformanceFixture(t)
	part := dist.FineGrainGreedyPartition(x, 2, 2)
	want := singleNodeBaseline(t, x, part, "coo", opt)
	c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
	tr, err := dist.NewTCPTransport(2, dist.TCPConfig{
		AckTimeout: 25 * time.Millisecond,
		MaxRetries: 20,
		Fault: dist.FaultConfig{
			DropProb:  0.15,
			DupProb:   0.15,
			DelayProb: 0.10,
			Delay:     40 * time.Millisecond, // beyond AckTimeout: forces retransmit + dedup
			Seed:      704,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpd.RunDist(x, c, tr, opt)
	tr.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkConformance(t, "faulty tcp P=2", want, got)
	if got.Retries == 0 {
		t.Error("fault injection produced no retransmissions — the test exercised nothing")
	}
}

// TestDistFaultRetryExhausted: with every data frame dropped, Send must
// give up after MaxRetries with the typed error — bounded by the backoff
// schedule, not a hang.
func TestDistFaultRetryExhausted(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 400, 0.5, 705)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	tr, err := dist.NewTCPTransport(2, dist.TCPConfig{
		AckTimeout: 10 * time.Millisecond,
		MaxRetries: 3,
		Fault:      dist.FaultConfig{DropProb: 1, Seed: 706},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	_, err = cpd.RunDist(x, c, tr, cpd.Options{Rank: 3, MaxIters: 3, Seed: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("total message loss did not fail the run")
	}
	var re *dist.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want dist.RetryExhaustedError, got %v", err)
	}
	if re.Attempts <= 3 {
		t.Errorf("exhausted after %d attempts, want > MaxRetries", re.Attempts)
	}
	// 10+20+40+80 ms of backoff per failed send, a handful of concurrent
	// senders: well under ten seconds unless something actually hung.
	if elapsed > 10*time.Second {
		t.Errorf("retry exhaustion took %v — looks like a hang", elapsed)
	}
}

// TestTransportBasics: FIFO per sender and payload integrity on both
// transports, including the binary codec round trip.
func TestTransportBasics(t *testing.T) {
	tcp, err := dist.NewTCPTransport(3, dist.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []dist.Transport{dist.NewChanTransport(3), tcp} {
		for s := 1; s <= 9; s++ {
			msg := &dist.Message{
				From: s % 2, To: 2, Kind: dist.MsgFold, Tag: dist.TagGram, Mode: s % 3, Iter: s,
				Rows: []int32{int32(s), int32(s + 1)},
				Data: []float64{float64(s) * 1.5, -float64(s), 0.25},
			}
			if err := tr.Send(msg); err != nil {
				t.Fatalf("%s send: %v", tr.Name(), err)
			}
		}
		lastBySender := map[int]int{}
		for n := 0; n < 9; n++ {
			m, err := tr.Recv(2)
			if err != nil {
				t.Fatalf("%s recv: %v", tr.Name(), err)
			}
			if m.Iter <= lastBySender[m.From] {
				t.Errorf("%s: per-sender FIFO violated: iter %d after %d from %d",
					tr.Name(), m.Iter, lastBySender[m.From], m.From)
			}
			lastBySender[m.From] = m.Iter
			s := m.Iter
			if m.Mode != s%3 || m.Tag != dist.TagGram || len(m.Rows) != 2 || m.Rows[0] != int32(s) ||
				len(m.Data) != 3 || m.Data[0] != float64(s)*1.5 || m.Data[2] != 0.25 {
				t.Errorf("%s: payload corrupted: %+v", tr.Name(), m)
			}
		}
		tr.Close()
		if _, err := tr.Recv(2); !errors.Is(err, dist.ErrClosed) {
			t.Errorf("%s: Recv after Close: %v", tr.Name(), err)
		}
	}
}

// TestTransportCloseUnblocksRecv: a blocked Recv must return dist.ErrClosed
// promptly when the transport closes (the abort path of a failed run).
func TestTransportCloseUnblocksRecv(t *testing.T) {
	tr := dist.NewChanTransport(2)
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv(1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, dist.ErrClosed) {
			t.Fatalf("want dist.ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// TestDistRunConformanceOptions: the loop options a sharded run shares with
// cpd.Run (Ridge, NonNegative, a non-natural ModeOrder) reproduce the
// single-node trajectory over the same shard summation within 1e-12.
func TestDistRunConformanceOptions(t *testing.T) {
	x, opt := conformanceFixture(t)
	nonNegInit := make([]*dense.Matrix, len(opt.Init))
	for m, f := range opt.Init {
		nonNegInit[m] = f.Clone()
		for i, v := range f.Data {
			nonNegInit[m].Data[i] = math.Abs(v)
		}
	}
	variants := []struct {
		name string
		set  func(*cpd.Options)
	}{
		{"ridge", func(o *cpd.Options) { o.Ridge = 0.1 }},
		{"nonneg", func(o *cpd.Options) { o.NonNegative, o.Init = true, nonNegInit }},
		{"mode-order", func(o *cpd.Options) { o.ModeOrder = []int{2, 0, 1} }},
	}
	for _, procs := range []int{1, 4} {
		part := dist.RandomPartition(x, procs, 1)
		for _, v := range variants {
			o := opt
			v.set(&o)
			want := singleNodeBaseline(t, x, part, "coo", o)
			c := dist.NewCluster(x, part, cooFactory)
			tr := dist.NewChanTransport(procs)
			got, err := cpd.RunDist(x, c, tr, o)
			tr.Close()
			if err != nil {
				t.Fatalf("P=%d %s: %v", procs, v.name, err)
			}
			checkConformance(t, fmt.Sprintf("P=%d %s", procs, v.name), want, got)
		}
	}
}

// TestDistRunMessages pins the protocol: on the conformance fixture every
// partition sends exactly the message count of the dedicated distributed
// loop this driver replaced (per mode: fold, norm reduce, expand, Gram
// reduce; per iteration: the fit reduce).
func TestDistRunMessages(t *testing.T) {
	x, opt := conformanceFixture(t)
	want := map[int]map[string]int64{
		1: {"random": 0, "medium-grain": 0, "fine-greedy": 0},
		2: {"random": 120, "medium-grain": 108, "fine-greedy": 120},
		4: {"random": 360, "medium-grain": 336, "fine-greedy": 444},
		7: {"random": 780, "medium-grain": 648, "fine-greedy": 996},
	}
	for procs, byPart := range want {
		for _, part := range partitioners(x, procs) {
			c := dist.NewCluster(x, part, cooFactory)
			tr := dist.NewChanTransport(procs)
			got, err := cpd.RunDist(x, c, tr, opt)
			tr.Close()
			if err != nil {
				t.Fatalf("P=%d %s: %v", procs, part.Name, err)
			}
			if got.Messages != byPart[part.Name] || got.Iters != 6 {
				t.Errorf("P=%d %s: %d messages in %d iterations, want %d in 6",
					procs, part.Name, got.Messages, got.Iters, byPart[part.Name])
			}
		}
	}
}

// TestDistRunSteadyZeroAlloc pins the sharded steady state at zero
// allocations: at P = 2 over the chan transport with one worker per
// process, a run of 2k iterations allocates exactly as often as a run of k.
// The transport recycles every consumed message and its mailboxes reuse
// their queues, so only the first sweep sizes buffers. The process-wide
// Mallocs counter also sees the runtime's own allocations, so the run is
// measured with the collector off (a GC cycle overlapping one run
// allocates) and on one P (with several, the per-P caches of goroutines
// and wait-queue entries allocate by scheduling luck). Each count is the
// least of three runs: a stray runtime allocation lands in one run, while a
// steady one shows in every run, at least once per extra iteration. The
// pin holds with and without a Progress callback, whose stop vote adds an
// all-reduce to every iteration.
func TestDistRunSteadyZeroAlloc(t *testing.T) {
	x := tensor.RandomClustered(5, 40, 3000, 0.5, 1801)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var progress func(cpd.IterStats) bool
	mallocs := func(iters int) uint64 {
		tr := dist.NewChanTransport(2)
		defer tr.Close()
		opt := cpd.Options{Rank: 8, MaxIters: iters, Tol: math.SmallestNonzeroFloat64, Seed: 3, Workers: 1, Progress: progress}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := cpd.RunDist(x, c, tr, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != iters {
			t.Fatalf("run stopped after %d of %d iterations", res.Iters, iters)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(2) // the first run sizes the shard engines' scratch
	for _, name := range []string{"bare", "progress"} {
		if name == "progress" {
			progress = func(cpd.IterStats) bool { return true }
		}
		short := min(mallocs(5), mallocs(5), mallocs(5))
		long := min(mallocs(10), mallocs(10), mallocs(10))
		if short != long {
			t.Errorf("%s: 5 iterations made %d allocations, 10 made %d: the steady sharded iteration allocates", name, short, long)
		}
	}
}

// TestDistRunProgressStopVote: at P=4, a Progress callback that returns
// false at iteration 3 stops every process there (a process that went on
// would wait for its peers forever), the run reports Stopped, and the
// factors are bit-identical to a MaxIters 3 run. The vote is one scalar
// all-reduce per iteration: 2·(P−1) messages.
func TestDistRunProgressStopVote(t *testing.T) {
	x, opt := conformanceFixture(t)
	const procs = 4
	part := dist.RandomPartition(x, procs, 1)
	run := func(o cpd.Options) *cpd.DistResult {
		t.Helper()
		tr := dist.NewChanTransport(procs)
		defer tr.Close()
		done := make(chan struct{})
		var res *cpd.DistResult
		var err error
		go func() {
			defer close(done)
			res, err = cpd.RunDist(x, dist.NewCluster(x, part, cooFactory), tr, o)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			tr.Close()
			<-done
			t.Fatal("the processes did not stop together")
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	capped := opt
	capped.MaxIters = 3
	want := run(capped)

	var calls atomic.Int32
	o := opt
	o.Progress = func(s cpd.IterStats) bool {
		calls.Add(1)
		return s.Iter < 3
	}
	got := run(o)
	if got.Iters != 3 || !got.Stopped || got.Converged {
		t.Errorf("stopped after %d iterations (Stopped %v, Converged %v), want 3 and Stopped", got.Iters, got.Stopped, got.Converged)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("Progress called %d times, want 3 (process 0 alone)", n)
	}
	if want.Stopped {
		t.Error("the MaxIters run reports Stopped")
	}
	if got.Fit != want.Fit {
		t.Errorf("fit %.17g, MaxIters 3 run %.17g", got.Fit, want.Fit)
	}
	for j := range want.Lambda {
		if got.Lambda[j] != want.Lambda[j] {
			t.Errorf("lambda[%d] %.17g, MaxIters 3 run %.17g", j, got.Lambda[j], want.Lambda[j])
		}
	}
	for m := range want.Factors {
		if d := got.Factors[m].MaxAbsDiff(want.Factors[m]); d != 0 {
			t.Errorf("factor %d differs from the MaxIters 3 run by %g", m, d)
		}
	}
	if votes := int64(3 * 2 * (procs - 1)); got.Messages != want.Messages+votes {
		t.Errorf("%d messages, want the MaxIters run's %d plus %d votes", got.Messages, want.Messages, votes)
	}
}

// cancelAfter wraps an engine so that its n-th MTTKRP call cancels the run:
// a deterministic mid-run cancellation point.
type cancelAfter struct {
	engine.Engine
	n      int
	cancel context.CancelFunc
}

func (e *cancelAfter) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if e.n--; e.n == 0 {
		e.cancel()
	}
	return e.Engine.MTTKRP(mode, factors, out)
}

// TestDistRunCtxCancel: cancelling mid-run at P=4 stops every process on
// both transports with context.Canceled as the returned error, promptly,
// and leaves no goroutine behind once the transport is closed.
func TestDistRunCtxCancel(t *testing.T) {
	x, opt := conformanceFixture(t)
	part := dist.RandomPartition(x, 4, 1)
	for _, name := range []string{"chan", "tcp"} {
		before := runtime.NumGoroutine()
		var tr dist.Transport = dist.NewChanTransport(4)
		if name == "tcp" {
			tcp, err := dist.NewTCPTransport(4, dist.TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tr = tcp
		}
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled time.Time
		c := dist.NewCluster(x, part, func(s *tensor.COO) engine.Engine {
			return &cancelAfter{Engine: coo.New(s, 1), n: 3*x.Order() + 2, cancel: func() {
				cancelled = time.Now()
				cancel()
			}}
		})
		// Only process 0's engine cancels; the others must stop too.
		for p := 1; p < len(c.Engines); p++ {
			c.Engines[p].(*cancelAfter).n = -1
		}
		o := opt
		o.Ctx, o.MaxIters = ctx, 1000
		_, err := cpd.RunDist(x, c, tr, o)
		returned := time.Now()
		tr.Close()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		if d := returned.Sub(cancelled); d > 2*time.Second {
			t.Errorf("%s: run returned %v after cancellation", name, d)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after close, %d before the run", name, n, before)
		}
	}
}

// corruptFirst is a transport that passes one message, the first that
// match accepts, through corrupt on its way: a faulty or hostile peer. The
// corruption edits a copy, never the sender's buffers or plan.
type corruptFirst struct {
	dist.Transport
	match   func(*dist.Message) bool
	corrupt func(*dist.Message)
	done    atomic.Bool
}

func (c *corruptFirst) Send(m *dist.Message) error {
	if !c.match(m) || !c.done.CompareAndSwap(false, true) {
		return c.Transport.Send(m)
	}
	bad := *m
	bad.Rows = slices.Clone(m.Rows)
	c.corrupt(&bad)
	return c.Transport.Send(&bad)
}

// TestDistRunRejectsBadMessage: at P = 2 over the chan transport, a fold
// naming a row the receiver does not own, a fold or expand payload one
// value short, an expand naming a row past the mode's last, and a short
// all-reduce partial each end the run with dist.ErrBadMessage: no panic,
// no sum into the wrong row, and no goroutine left behind.
func TestDistRunRejectsBadMessage(t *testing.T) {
	x, opt := conformanceFixture(t)
	// Fine grain: it is the partition under which process 1 owns a row
	// another process folds to it, so a fold can name a foreign row.
	c := dist.NewCluster(x, dist.FineGrainGreedyPartition(x, 2, 2), cooFactory)
	// foreign returns a row of m's mode that m's receiver does not own, or −1.
	foreign := func(m *dist.Message) int {
		return slices.IndexFunc(c.Owners.Owner[m.Mode], func(q int32) bool { return int(q) != m.To })
	}
	kind := func(k dist.MsgKind) func(*dist.Message) bool {
		return func(m *dist.Message) bool { return m.Kind == k }
	}
	short := func(m *dist.Message) { m.Data = m.Data[:len(m.Data)-1] }
	cases := []struct {
		name    string
		match   func(*dist.Message) bool
		corrupt func(*dist.Message)
	}{
		{"foreign fold row",
			func(m *dist.Message) bool { return m.Kind == dist.MsgFold && foreign(m) >= 0 },
			func(m *dist.Message) { m.Rows[0] = int32(foreign(m)) }},
		{"short fold payload", kind(dist.MsgFold), short},
		{"short expand payload", kind(dist.MsgExpand), short},
		{"expand row past dim", kind(dist.MsgExpand), func(m *dist.Message) { m.Rows[0] = int32(x.Dims[m.Mode]) }},
		{"short all-reduce", kind(dist.MsgReduce), short},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		tr := &corruptFirst{Transport: dist.NewChanTransport(2), match: tc.match, corrupt: tc.corrupt}
		_, err := cpd.RunDist(x, c, tr, opt)
		tr.Close()
		if !tr.done.Load() {
			t.Fatalf("%s: the run sent no message to corrupt", tc.name)
		}
		if !errors.Is(err, dist.ErrBadMessage) {
			t.Errorf("%s: want dist.ErrBadMessage, got %v", tc.name, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, n, before)
		}
	}
}

// TestDistRunObserversBitIdentical: process 0 carries the caller's Health,
// CollectStats and Tracer; attaching them at P=4 leaves λ, the fit and
// every factor bit-identical, and the observers see the run.
func TestDistRunObserversBitIdentical(t *testing.T) {
	x, opt := conformanceFixture(t)
	part := dist.MediumGrainPartition(x, 4)
	run := func(o cpd.Options) *cpd.DistResult {
		t.Helper()
		c := dist.NewCluster(x, part, cooFactory)
		tr := dist.NewChanTransport(4)
		defer tr.Close()
		res, err := cpd.RunDist(x, c, tr, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(opt)
	o := opt
	probe := health.New(health.Config{})
	tracer := obs.NewTracer(1 << 12)
	o.Health, o.CollectStats, o.Tracer = probe, true, tracer
	observed := run(o)
	if plain.Fit != observed.Fit {
		t.Errorf("fit %.17g with observers, %.17g without", observed.Fit, plain.Fit)
	}
	for j := range plain.Lambda {
		if plain.Lambda[j] != observed.Lambda[j] {
			t.Errorf("lambda[%d] differs with observers", j)
		}
	}
	for m := range plain.Factors {
		if d := plain.Factors[m].MaxAbsDiff(observed.Factors[m]); d != 0 {
			t.Errorf("factor %d differs with observers by %g", m, d)
		}
	}
	if observed.Stats == nil || observed.Stats.Phases[cpd.PhaseSolve].Count == 0 {
		t.Error("CollectStats produced no per-phase breakdown")
	}
	if probe.Summary().Iters != observed.Iters {
		t.Errorf("health probe observed %d iterations, run completed %d", probe.Summary().Iters, observed.Iters)
	}
}

// TestDistRunRejectsUnsupported: Checkpoint and Audit need cross-process
// gathers a sharded run does not have yet.
func TestDistRunRejectsUnsupported(t *testing.T) {
	x, opt := conformanceFixture(t)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	tr := dist.NewChanTransport(2)
	defer tr.Close()
	for name, set := range map[string]func(*cpd.Options){
		"checkpoint": func(o *cpd.Options) { o.Checkpoint = &cpd.CheckpointConfig{Dir: t.TempDir()} },
		"audit":      func(o *cpd.Options) { o.Audit = audit.NewRecorder(audit.Config{}) },
	} {
		o := opt
		set(&o)
		if _, err := cpd.RunDist(x, c, tr, o); err == nil {
			t.Errorf("%s accepted by a sharded run", name)
		}
	}
}
