package audit

import (
	"bytes"
	"strings"
	"testing"

	"adatm/internal/model"
	"adatm/internal/tensor"
)

// FuzzValidateLedger feeds arbitrary bytes to the ledger validator. It must
// never panic, and it can never accept more records than the input has
// lines.
func FuzzValidateLedger(f *testing.F) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	plan := model.Select(tensor.RandomClustered(3, 8, 60, 0.5, 1), model.Options{Rank: 4, Budget: 4096})
	if err := l.Append(Record{Decision: NewDecision(plan)}); err != nil {
		f.Fatal(err)
	}
	corr := tensor.RandomClustered(4, 8, 80, 0.5, 2)
	permuted := model.SelectPermuted(corr, model.Options{Rank: 4}, map[string][]int{"rev": {3, 2, 1, 0}})
	if err := l.Append(Record{Decision: NewDecision(permuted)}); err != nil {
		f.Fatal(err)
	}
	if err := l.Append(Record{Event: &Event{Kind: "resume", Iter: 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"decision":{"chosen":""}}`)
	f.Add(`{"event":{"kind":"perf.suite"}}` + "\r\n" + `{"report":{}}`)
	f.Add(`{"decision":{"chosen":"flat","dims":[-1],"nnz":-5,"stream":true}}`)
	f.Add(`{"decision":{"chosen":"natural/flat","dims":[4,3,2],"modes":[2,0,2]}}`)
	f.Fuzz(func(t *testing.T, in string) {
		n, _ := ValidateLedger(strings.NewReader(in))
		if lines := strings.Count(in, "\n") + 1; n < 0 || n > lines {
			t.Fatalf("accepted %d records from %d lines", n, lines)
		}
	})
}
