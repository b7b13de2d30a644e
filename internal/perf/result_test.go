package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestResultRoundTrip(t *testing.T) {
	res := mkResult(baseVals())
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format != FormatVersion {
		t.Errorf("format = %q", back.Format)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip changed the result:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteFileRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for name, r := range map[string]*Result{
		"format":       {Format: "bogus"},
		"no runs":      {Format: FormatVersion, Seeds: []int64{1}},
		"unknown seed": {Format: FormatVersion, Runs: []Run{{Workload: "w", Seed: 1, Report: Report{Attempted: 1}}}},
		"trace mode":   {Format: FormatVersion, Seeds: []int64{1}, Runs: []Run{{Workload: "w", Seed: 1, Trace: 2, Report: Report{Attempted: 1}}}},
		"duplicate": {Format: FormatVersion, Seeds: []int64{1}, Runs: []Run{
			{Workload: "w", Seed: 1, Report: Report{Attempted: 1}}, {Workload: "w", Seed: 1, Report: Report{Attempted: 1}}}},
	} {
		if err := WriteFile(path, r); err == nil {
			t.Errorf("%s: WriteFile accepted an invalid result", name)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("invalid result still created %s", path)
	}
}

func TestLoadFileRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, data := range []string{
		"{not json",
		`{"format":"adatm-bench/v1","scenarios":[{"name":"a","samples":[{"ns":1}]}]}`,
		`{"format":"adatm-bench/v2","seeds":[1],"runs":[{"workload":"w","seed":1,"report":{"correct":true,"attempted":3}}]}`,
		`{"format":"adatm-bench/v2","seeds":[1],"runs":[{"workload":"w","seed":1,"report":{"attempted":3,"failed":4}}]}`,
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Errorf("LoadFile accepted %s", data)
		}
	}
}
