package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// reportLine is a memo-zipf4 report, as perfbench printed it as its last
// line of output (seed 1, --seconds 0, --trace 0).
const reportLine = `{"correct":true,"attempted":3,"failed":0,"metrics":{"alloc_bytes":{"value":12969960,"unit":"bytes"},"decompose_s":{"value":0.2094876897753089,"unit":"s"},"fit":{"value":0.9954595963306023,"unit":"fit"},"iter_s":{"value":0.00513964798471536,"unit":"s"},"peak_rss_bytes":{"value":31956992,"unit":"bytes"},"setup_s":{"value":0.030195346651592302,"unit":"s"}}}`

// FuzzDecodeResult feeds arbitrary bytes to both decoders of the bench
// format: the result file's and the perfbench report line's. Neither may
// panic; every result Decode accepts must pass Validate, and written back
// with WriteJSON must decode again, and the same holds for every report
// ParseReport accepts.
func FuzzDecodeResult(f *testing.F) {
	committed, err := os.ReadFile("../../BENCH_23.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(reportLine))
	f.Add([]byte(""))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"format":"adatm-bench/v2","seeds":[1],"runs":[]}`))
	f.Add([]byte(`{"format":"adatm-bench/v2","seeds":[1],"runs":[{"workload":"w","seed":1,"report":{"attempted":3,"failed":-1}}]}`))
	f.Add([]byte(`{"format":"adatm-bench/v2","seeds":[1],"runs":[{"workload":"w","seed":1,"report":{"attempted":1}},{"workload":"w","seed":1,"report":{"attempted":1}}]}`))
	f.Add([]byte(`{"format":"adatm-bench/v1","scenarios":[{"name":"a","samples":[{"ns":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rep, err := ParseReport(data); err == nil {
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("accepted a report json cannot write: %v", err)
			}
			if _, err := ParseReport(line); err != nil {
				t.Fatalf("accepted report does not parse after writing: %v\n%s", err, line)
			}
		}
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
