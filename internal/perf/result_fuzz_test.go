package perf

import (
	"bytes"
	"testing"
)

// FuzzDecodeResult feeds arbitrary bytes to the result-file decoder. It
// must never panic, every result it accepts must pass Validate, and an
// accepted result written back with WriteJSON must decode again.
func FuzzDecodeResult(f *testing.F) {
	var buf bytes.Buffer
	res := &SuiteResult{
		Format:  FormatVersion,
		Env:     Env{OS: "linux", Arch: "amd64", CPUs: 2, MaxProcs: 1, GoVersion: "go1.22", Revision: "unknown"},
		Samples: 2,
		Scenarios: []ScenarioResult{{
			Name:    "mttkrp/tiny3/coo/scatter",
			Samples: []Sample{{StartUnixNano: 1, NS: 1200, Allocs: 3, Bytes: 96, HadamardOps: 640, MTTKRPCalls: 3}, {NS: 1100}},
		}},
	}
	if err := res.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"format":"adatm-bench/v1","scenarios":[]}`))
	f.Add([]byte(`{"format":"adatm-bench/v1","scenarios":[{"name":"a","samples":[{"ns":-1}]}]}`))
	f.Add([]byte(`{"format":"adatm-bench/v1","scenarios":[{"name":"a","samples":[{"ns":1}]},{"name":"a","samples":[{"ns":2}]}]}`))
	f.Add([]byte(`{"format":"adatm-bench/v1","scenarios":[{"name":"a","samples":[{"ns":1e3}],"summary":{"median_ns":1e308}}],"timeline":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted a result that fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := r.WriteJSON(&out); err != nil {
			t.Fatalf("accepted a result WriteJSON cannot write: %v", err)
		}
		if _, err := Decode(out.Bytes()); err != nil {
			t.Fatalf("accepted result does not decode after WriteJSON: %v\n%s", err, out.Bytes())
		}
	})
}
