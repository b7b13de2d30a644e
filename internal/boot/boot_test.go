package boot_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adatm"
	"adatm/internal/audit"
	"adatm/internal/boot"
)

// Two runs into one -auditfile leave both decisions: the ledger is an
// accumulating history, so the session opens it for appending.
func TestAuditFileAppends(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{30, 20, 10}, NNZ: 2000, Seed: 4})
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for run := 0; run < 2; run++ {
		sess, err := boot.Start(boot.Config{Name: "test", AuditFile: path})
		if err != nil {
			t.Fatal(err)
		}
		_, err = adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 3, Seed: 1, Workers: 1,
			Engine: adatm.EngineAdaptive, Audit: sess.Audit})
		sess.Close(false)
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := audit.ValidateLedger(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	decisions := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Decision != nil {
			decisions++
		}
	}
	if decisions != 2 {
		t.Errorf("ledger holds %d decisions in %d records after two runs, want 2", decisions, n)
	}
}

// A session with a trace file and a debug server serves /metrics with the
// runtime series and /timeseries while open, and writes the trace on Close.
func TestSessionServesAndWritesTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var log bytes.Buffer
	sess, err := boot.Start(boot.Config{Name: "test", Log: &log, TraceFile: trace, Workers: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer == nil || sess.Metrics == nil || sess.Server == nil || sess.Sampler == nil {
		t.Fatalf("session missing an output: %+v", sess)
	}
	if sess.Audit != nil || sess.Ledger != nil {
		t.Error("audit recorder or ledger without -auditfile")
	}
	if !strings.Contains(log.String(), "debug server listening on http://"+sess.Server.Addr()) {
		t.Errorf("listening line missing: %q", log.String())
	}
	for path, want := range map[string]string{"/metrics": "adatm_go_goroutines", "/timeseries": "interval_ns"} {
		resp, err := http.Get("http://" + sess.Server.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), want) {
			t.Errorf("%s does not mention %s:\n%s", path, want, body)
		}
	}
	sp := sess.Tracer.StartSpan("work", 0)
	sp.End()
	sess.Close(false)
	sess.Close(false) // only the first call acts
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"work"`, `"worker 2"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace file does not contain %s", want)
		}
	}
}

// A Start that fails part-way stops what it had started.
func TestStartFailureCleansUp(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	if _, err := boot.Start(boot.Config{Name: "test", CPUProfile: prof, AuditFile: filepath.Join(t.TempDir(), "no", "such", "dir", "ledger")}); err == nil {
		t.Fatal("unwritable -auditfile accepted")
	}
	// The CPU profile was stopped again, so a new one can start.
	sess, err := boot.Start(boot.Config{Name: "test", CPUProfile: prof})
	if err != nil {
		t.Fatalf("profile left running by the failed start: %v", err)
	}
	sess.Close(false)
}
