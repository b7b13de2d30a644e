package cpd

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adatm/internal/ckpt"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/tensor"
)

func TestModelRoundTrip(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 300, 0.5, 901)
	res, err := Run(x, coo.New(x, 1), Options{Rank: 4, MaxIters: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Lambda {
		if got.Lambda[r] != res.Lambda[r] {
			t.Fatalf("lambda changed: %v vs %v", got.Lambda, res.Lambda)
		}
	}
	for m := range res.Factors {
		if d := got.Factors[m].MaxAbsDiff(res.Factors[m]); d != 0 {
			t.Fatalf("factor %d changed by %g", m, d)
		}
	}
	// The reloaded model must reconstruct identically.
	idx := []tensor.Index{1, 2, 3}
	if a, b := Reconstruct(res, idx), Reconstruct(got, idx); math.Abs(a-b) > 0 {
		t.Fatalf("reconstruction differs: %g vs %g", a, b)
	}
}

func TestReadModelRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       "hello",
		"wrong format":   `{"format":"other/v9","order":1,"rank":1,"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
		"order mismatch": `{"format":"adatm-cp/v1","order":2,"rank":1,"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
		"ragged data":    `{"format":"adatm-cp/v1","order":1,"rank":2,"factors":[{"rows":2,"cols":2,"data":[1,2,3]}]}`,
		"bad lambda":     `{"format":"adatm-cp/v1","order":1,"rank":2,"lambda":[1],"factors":[{"rows":1,"cols":2,"data":[1,2]}]}`,
		"zero order":     `{"format":"adatm-cp/v1","order":0,"rank":1,"factors":[]}`,
		"negative rank":  `{"format":"adatm-cp/v1","order":1,"rank":-1,"factors":[{"rows":0,"cols":-1,"data":[]}]}`,
		"wrapping rows":  `{"format":"adatm-cp/v1","order":1,"rank":4,"factors":[{"rows":4611686018427387904,"cols":4,"data":[]}]}`,
	}
	for name, in := range cases {
		if _, _, err := ReadModel(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSaveModelCrashMidWriteKeepsOldFile kills the save mid-stream (an
// injected short-writing sink) and asserts the previously saved model
// survives intact — the regression pin for the non-atomic os.Create path.
func TestSaveModelCrashMidWriteKeepsOldFile(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 300, 0.5, 901)
	res, err := Run(x, coo.New(x, 1), Options{Rank: 4, MaxIters: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := SaveModel(path, res); err != nil {
		t.Fatal(err)
	}

	res2, err := Run(x, coo.New(x, 1), Options{Rank: 4, MaxIters: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	restore := ckpt.InjectFault(&ckpt.Fault{Point: ckpt.FaultMidWrite, AfterBytes: 64})
	err = SaveModel(path, res2)
	restore()
	if !errors.Is(err, ckpt.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	got, err := LoadModel(path)
	if err != nil {
		t.Fatalf("old model corrupted by crashed save: %v", err)
	}
	for m := range res.Factors {
		if d := got.Factors[m].MaxAbsDiff(res.Factors[m]); d != 0 {
			t.Fatalf("factor %d changed by %g after crashed save", m, d)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("crashed save left stray files: %v", ents)
	}
}

// TestReadModelRejectsNonFinite: NaN/Inf in lambda or factor data must be
// refused with the offending location named, matching ReadTNS's policy.
func TestReadModelRejectsNonFinite(t *testing.T) {
	// Valid JSON can't spell NaN/Inf, so the decoder catches textual forms.
	for name, in := range map[string]string{
		"nan literal":  `{"format":"adatm-cp/v1","order":1,"rank":2,"factors":[{"rows":2,"cols":2,"data":[1,2,NaN,4]}]}`,
		"inf overflow": `{"format":"adatm-cp/v1","order":1,"rank":1,"lambda":[1e999],"factors":[{"rows":1,"cols":1,"data":[1]}]}`,
	} {
		if _, _, err := ReadModel(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Non-textual corruption (or a foreign writer) can still hand us
	// non-finite float64s; the schema validation must name the location.
	fin := func(v ...float64) []*dense.Matrix {
		return []*dense.Matrix{{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}, {Rows: 1, Cols: 2, Data: v}}
	}
	if err := validateModelFinite([]float64{1, math.NaN()}, fin(1, 2)); err == nil || !strings.Contains(err.Error(), "lambda[1]") {
		t.Errorf("NaN lambda: %v", err)
	}
	if err := validateModelFinite([]float64{1, 2}, fin(1, math.Inf(-1))); err == nil ||
		!strings.Contains(err.Error(), "factor 1") || !strings.Contains(err.Error(), "(0,1)") {
		t.Errorf("Inf factor entry: %v", err)
	}
	if err := validateModelFinite([]float64{1, 2}, fin(1, 2)); err != nil {
		t.Errorf("finite model rejected: %v", err)
	}
	// Baseline: a well-formed finite model still loads end to end.
	lambda, factors, err := ReadModel(strings.NewReader(
		`{"format":"adatm-cp/v1","order":1,"rank":1,"lambda":[1],"factors":[{"rows":1,"cols":1,"data":[1]}]}`))
	if err != nil || len(lambda) != 1 || len(factors) != 1 {
		t.Fatalf("baseline model rejected: %v", err)
	}
}

func TestWriteModelRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteModel(&buf, nil, nil); err == nil {
		t.Error("empty factor list accepted")
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzReadModel feeds arbitrary bytes to the model decoder. It must never
// panic, and a model it accepts must write back out and decode again to
// the same λ and factors, bit for bit.
func FuzzReadModel(f *testing.F) {
	var buf bytes.Buffer
	fm := dense.New(2, 3)
	copy(fm.Data, []float64{1, -2.5, 0, math.Copysign(0, -1), 1e-300, 7})
	if err := WriteModel(&buf, []float64{3, 2, 1}, []*dense.Matrix{fm, fm}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"adatm-cp/v1","order":1,"rank":1,"factors":[{"rows":1,"cols":1,"data":[4]}]}`)
	f.Add(`{"format":"adatm-cp/v1","order":1,"rank":-1,"factors":[{"rows":0,"cols":-1,"data":[]}]}`)
	f.Add(`{"format":"adatm-cp/v1","order":1,"rank":4,"factors":[{"rows":4611686018427387904,"cols":4,"data":[]}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		lambda, factors, err := ReadModel(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteModel(&out, lambda, factors); err != nil {
			t.Fatalf("accepted model does not write back: %v", err)
		}
		lambda2, factors2, err := ReadModel(&out)
		if err != nil {
			t.Fatalf("written model does not decode: %v", err)
		}
		if !sameBits(lambda, lambda2) || len(factors) != len(factors2) {
			t.Fatalf("round trip changed λ or the order: %v -> %v", lambda, lambda2)
		}
		for m, fm := range factors {
			g := factors2[m]
			if fm.Rows != g.Rows || fm.Cols != g.Cols || !sameBits(fm.Data, g.Data) {
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
