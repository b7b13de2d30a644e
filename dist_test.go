package adatm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"adatm"
	"adatm/internal/audit"
	"adatm/internal/cpd"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

func TestDecomposeDistMatchesDecompose(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{14, 14, 14}, NNZ: 600, Seed: 650})
	opt := adatm.Options{Rank: 4, MaxIters: 5, Tol: 1e-14, Seed: 651, Engine: adatm.EngineCOO, TrackFit: true}
	want, err := adatm.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}

	var ledger bytes.Buffer
	sharded := opt
	sharded.Procs, sharded.Audit = 3, adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
	res, err := adatm.Decompose(x, sharded)
	if err != nil {
		t.Fatal(err)
	}
	// Engine-level summation orders differ between the full-tensor engine
	// and the shard fold, so compare at the cross-engine tolerance (the
	// strict 1e-12 conformance suite lives in internal/dist).
	if math.Abs(res.Fit-want.Fit) > 1e-9 {
		t.Errorf("sharded fit %.12f vs single-node %.12f", res.Fit, want.Fit)
	}
	if res.Iters != want.Iters || len(res.Factors) != 3 {
		t.Errorf("iters %d vs %d, %d factors", res.Iters, want.Iters, len(res.Factors))
	}
	if !strings.Contains(ledger.String(), "dist.partition") {
		t.Errorf("audit ledger lacks the partition decision:\n%s", ledger.String())
	}
	_ = adatm.Reconstruct(res, []adatm.Index{0, 0, 0})

	// DecomposeDist is the same run plus its communication accounting.
	sharded.Audit = nil
	dres, err := adatm.DecomposeDist(x, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Fit != res.Fit {
		t.Errorf("DecomposeDist fit %.17g, Decompose %.17g", dres.Fit, res.Fit)
	}
	if dres.Messages == 0 {
		t.Error("P=3 run sent no messages")
	}
}

// TestDecomposeShardedOptions: at Procs 2 the public API carries each loop
// option to the sharded run, as TestDistRunConformanceOptions and
// TestDistRunObserversBitIdentical check them on cpd.RunDist. Ridge,
// NonNegative and ModeOrder match the single-node run within 1e-9 (each
// moves the fit far past that, so a dropped option fails); Health,
// CollectStats and a live Ctx leave the sharded run bit-identical and see
// it, and a cancelled Ctx stops it.
func TestDecomposeShardedOptions(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{14, 12, 10}, NNZ: 500, Seed: 653})
	base := adatm.Options{Rank: 4, MaxIters: 5, Tol: 1e-14, Seed: 654, Workers: 1, Engine: adatm.EngineCOO}
	decompose := func(o adatm.Options) *adatm.Result {
		t.Helper()
		res, err := adatm.Decompose(x, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sharded := func(o adatm.Options) adatm.Options {
		o.Procs = 2
		return o
	}

	plain := decompose(base)
	for _, v := range []struct {
		name string
		set  func(*adatm.Options)
	}{
		{"ridge", func(o *adatm.Options) { o.Ridge = 0.5 }},
		{"nonneg", func(o *adatm.Options) { o.NonNegative = true }},
		{"mode-order", func(o *adatm.Options) { o.ModeOrder = []int{2, 0, 1} }},
	} {
		o := base
		v.set(&o)
		want := decompose(o)
		if math.Abs(want.Fit-plain.Fit) < 1e-6 {
			t.Fatalf("%s: moves the single-node fit by only %g", v.name, want.Fit-plain.Fit)
		}
		got := decompose(sharded(o))
		if math.Abs(got.Fit-want.Fit) > 1e-9 || got.Iters != want.Iters {
			t.Errorf("%s: sharded fit %.12f in %d iterations, single-node %.12f in %d",
				v.name, got.Fit, got.Iters, want.Fit, want.Iters)
		}
	}

	ref := decompose(sharded(base))
	same := func(name string, got *adatm.Result) {
		t.Helper()
		if got.Fit != ref.Fit || got.Iters != ref.Iters {
			t.Errorf("%s: fit %.17g in %d iterations, plain sharded %.17g in %d", name, got.Fit, got.Iters, ref.Fit, ref.Iters)
		}
		for m := range ref.Factors {
			if d := got.Factors[m].MaxAbsDiff(ref.Factors[m]); d != 0 {
				t.Errorf("%s: factor %d differs by %g", name, m, d)
			}
		}
	}
	o := sharded(base)
	o.Health = adatm.NewHealthProbe(adatm.HealthConfig{})
	same("health", decompose(o))
	if n := o.Health.Summary().Iters; n != ref.Iters {
		t.Errorf("health probe saw %d iterations, run completed %d", n, ref.Iters)
	}
	o = sharded(base)
	o.CollectStats = true
	res := decompose(o)
	same("collect-stats", res)
	if res.Stats == nil || res.Stats.Phases[adatm.PhaseSolve].Count == 0 {
		t.Error("collect-stats: no per-phase breakdown")
	}
	o = sharded(base)
	o.Ctx = context.Background()
	same("ctx", decompose(o))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	if _, err := adatm.Decompose(x, o); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: want context.Canceled, got %v", err)
	}
}

func TestDecomposeDistOptionValidation(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{8, 8, 8}, NNZ: 120, Seed: 652})
	if _, err := adatm.DecomposeDist(x, adatm.Options{Rank: 3, Partition: "bogus"}); err == nil {
		t.Error("unknown partition accepted")
	}
	if _, err := adatm.DecomposeDist(x, adatm.Options{Rank: 3, Transport: "bogus"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := adatm.DecomposeDist(x, adatm.Options{Rank: 3, Fault: &adatm.DistFault{DropProb: 1}}); err == nil {
		t.Error("fault injection on the chan transport accepted")
	}
	if _, err := adatm.DecomposeDist(nil, adatm.Options{Rank: 3}); err == nil {
		t.Error("nil tensor accepted")
	}
	ckpt := adatm.Options{Rank: 3, Procs: 2, Checkpoint: &adatm.CheckpointConfig{Dir: t.TempDir()}}
	if _, err := adatm.Decompose(x, ckpt); err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Errorf("sharded checkpoint: want an error naming Checkpoint, got %v", err)
	}

	// The entry points with only a single-node path refuse Procs > 1
	// rather than quietly running on one node.
	two := adatm.Options{Rank: 3, MaxIters: 2, Procs: 2, Checkpoint: ckpt.Checkpoint}
	eng, err := adatm.NewEngine(x, adatm.EngineCOO, adatm.EngineConfig{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*adatm.Result, error){
		"Resume":            func() (*adatm.Result, error) { return adatm.Resume(x, two) },
		"DecomposeWith":     func() (*adatm.Result, error) { return adatm.DecomposeWith(x, eng, two) },
		"DecomposePermuted": func() (*adatm.Result, error) { return adatm.DecomposePermuted(x, two) },
	} {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s with Procs 2: want an error naming it, got %v", name, err)
		}
	}

	// Forced partitions and the TCP transport work end to end.
	for _, part := range []string{adatm.PartitionRandom, adatm.PartitionMediumGrain, adatm.PartitionFineGreedy} {
		if _, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 2, Procs: 2, Partition: part}); err != nil {
			t.Errorf("partition %s: %v", part, err)
		}
	}
	if _, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 2, Procs: 2, Transport: adatm.TransportTCP}); err != nil {
		t.Errorf("tcp transport: %v", err)
	}

	plan, err := adatm.PartitionPlanFor(x, 4, 3, 1)
	if err != nil || len(plan.Candidates) == 0 || plan.String() == "" {
		t.Errorf("PartitionPlanFor: %v %+v", err, plan)
	}
}

// TestDecomposeDistRefusesBeforeSetup: every option a sharded run refuses,
// and a non-positive rank, is refused before set-up, so the audited run
// scores no partition and leaves its ledger empty.
func TestDecomposeDistRefusesBeforeSetup(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{8, 8, 8}, NNZ: 120, Seed: 657})
	for name, o := range map[string]adatm.Options{
		"negative rank":       {Rank: -1},
		"checkpoint":          {Checkpoint: &adatm.CheckpointConfig{Dir: t.TempDir()}},
		"unknown transport":   {Transport: "bogus"},
		"fault on chan":       {Fault: &adatm.DistFault{DropProb: 1}},
		"unknown partition":   {Partition: "bogus"},
		"fine-greedy at P=65": {Partition: adatm.PartitionFineGreedy, Procs: 65},
	} {
		var ledger bytes.Buffer
		o.Audit = adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
		if o.Rank == 0 {
			o.Rank = 3
		}
		if o.Procs == 0 {
			o.Procs = 2
		}
		if _, err := adatm.Decompose(x, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if ledger.Len() != 0 {
			t.Errorf("%s: a refused run wrote the ledger:\n%s", name, ledger.String())
		}
	}
}

// TestDecomposeDistForcedPartition: a forced partitioner is scored alone,
// so its ledger record holds that one candidate with reason user-forced,
// while auto records the whole family; and the forced run's fit is that
// of a cluster built from the same partitioner by dist.NewCluster, which
// analyzes its fresh partition itself, bit for bit.
func TestDecomposeDistForcedPartition(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{14, 12, 10}, NNZ: 500, Seed: 658})
	base := adatm.Options{Rank: 4, MaxIters: 4, Tol: 1e-14, Seed: 659, Workers: 1, Engine: adatm.EngineCOO, Procs: 2}
	run := func(o adatm.Options) (*adatm.DistResult, *audit.Decision) {
		t.Helper()
		var ledger bytes.Buffer
		o.Audit = adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
		res, err := adatm.DecomposeDist(x, o)
		if err != nil {
			t.Fatal(err)
		}
		var decs []*audit.Decision
		for _, line := range strings.Split(strings.TrimSpace(ledger.String()), "\n") {
			var rec audit.Record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("ledger line %q: %v", line, err)
			}
			if rec.Decision != nil && rec.Decision.Kind == "partition" {
				decs = append(decs, rec.Decision)
			}
		}
		if len(decs) != 1 {
			t.Fatalf("partition %q: %d partition decisions in the ledger, want 1", o.Partition, len(decs))
		}
		return res, decs[0]
	}

	if _, dec := run(base); len(dec.Partition) != 3 || dec.Reason != audit.ReasonCommOptimal {
		t.Errorf("auto: %d candidates, reason %q", len(dec.Partition), dec.Reason)
	}
	for name, build := range map[string]func() *dist.Partition{
		adatm.PartitionRandom:      func() *dist.Partition { return dist.RandomPartition(x, 2, base.Seed) },
		adatm.PartitionMediumGrain: func() *dist.Partition { return dist.MediumGrainPartition(x, 2) },
		adatm.PartitionFineGreedy:  func() *dist.Partition { return dist.FineGrainGreedyPartition(x, 2, base.Seed) },
	} {
		o := base
		o.Partition = name
		res, dec := run(o)
		if len(dec.Partition) != 1 || dec.Partition[0].Name != name || dec.Chosen != name || dec.Reason != audit.ReasonUserForced {
			t.Errorf("%s: chosen %q, reason %q, candidates %+v", name, dec.Chosen, dec.Reason, dec.Partition)
		}

		c := dist.NewCluster(x, build(), func(s *tensor.COO) engine.Engine {
			eng, err := adatm.NewEngine(s, adatm.EngineCOO, adatm.EngineConfig{Rank: base.Rank, Workers: base.Workers})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		})
		tr := dist.NewChanTransport(2)
		want, err := cpd.RunDist(x, c, tr, cpd.Options{
			Rank: base.Rank, MaxIters: base.MaxIters, Tol: base.Tol, Seed: base.Seed, Workers: base.Workers,
		})
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Fit != want.Fit || res.Iters != want.Iters || res.Messages != want.Messages {
			t.Errorf("%s: fit %.17g in %d iterations (%d messages), fresh cluster %.17g in %d (%d)",
				name, res.Fit, res.Iters, res.Messages, want.Fit, want.Iters, want.Messages)
		}
	}
}
