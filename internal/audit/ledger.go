package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"adatm/internal/tensor"
)

// Record is one ledger entry: a decision plus (once the run finished) its
// reconciliation, or a standalone run-lifecycle event (e.g. a checkpoint
// resume). Sweeps accumulate one entry per reconciled candidate.
type Record struct {
	Decision *Decision `json:"decision,omitempty"`
	Report   *Report   `json:"report,omitempty"`
	Event    *Event    `json:"event,omitempty"`
}

// Event is a run-lifecycle entry in the ledger outside the model-selection
// flow: checkpoint resumes (which explain why a run's measured iteration
// counts start mid-trajectory), the sharded solver's partition choice, and
// numerical-health state changes.
type Event struct {
	// Kind identifies the event ("resume.load", "resume",
	// "dist.partition", "health.state").
	Kind string `json:"kind"`
	// Iter is the ALS iteration the event refers to (for a resume: the
	// checkpointed iteration the run continues from).
	Iter int `json:"iter,omitempty"`
	// Path is the file involved (the checkpoint), when known.
	Path string `json:"path,omitempty"`
	// Fingerprint is the tensor+plan fingerprint the checkpoint was
	// validated against.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Detail carries kind-specific context: for dist.partition the process
	// count, transport and chosen partitioner, for health.state the state
	// transition and the signals behind it.
	Detail string `json:"detail,omitempty"`
}

// String renders the record for human consumption: the decision summary
// followed by the reconciliation table (when present).
func (rec Record) String() string {
	if rec.Decision == nil {
		if ev := rec.Event; ev != nil {
			return fmt.Sprintf("event: kind=%s iter=%d path=%s fingerprint=%s\n",
				ev.Kind, ev.Iter, ev.Path, ev.Fingerprint)
		}
		return "audit: no decision recorded\n"
	}
	d := rec.Decision
	s := fmt.Sprintf("decision: dims=%v nnz=%d rank=%d budget=%s chosen=%s reason=%s candidates=%d\n",
		d.Dims, d.NNZ, d.Rank, fmtBytes(d.Budget), d.Chosen, d.Reason, len(d.Candidates))
	if rec.Report != nil {
		s += rec.Report.String()
	}
	return s
}

// Ledger appends Records as JSONL (one JSON object per line) to a writer —
// the durable decision history sweeps and long-running services accumulate.
// Safe for concurrent Append. A nil *Ledger no-ops.
type Ledger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLedger wraps w; a nil writer yields a nil (no-op) ledger.
func NewLedger(w io.Writer) *Ledger {
	if w == nil {
		return nil
	}
	return &Ledger{w: w}
}

// Append writes one record as a single JSON line.
func (l *Ledger) Append(rec Record) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.w.Write(data)
	return err
}

// ValidateLedger checks a JSONL decision ledger: every non-empty line must
// parse as a Record carrying either a decision with a chosen candidate (and
// a mode order, when present, that permutes its dims' positions) or a
// lifecycle event with a kind. Returns the number of valid records,
// stopping at the first malformed line.
func ValidateLedger(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return n, fmt.Errorf("audit: ledger line %d: %w", line, err)
		}
		switch {
		case rec.Decision != nil:
			if rec.Decision.Chosen == "" {
				return n, fmt.Errorf("audit: ledger line %d: decision has no chosen candidate", line)
			}
			if len(rec.Decision.Modes) > 0 && !tensor.IsPermutation(rec.Decision.Modes, len(rec.Decision.Dims)) {
				return n, fmt.Errorf("audit: ledger line %d: modes %v do not permute %d dims", line, rec.Decision.Modes, len(rec.Decision.Dims))
			}
		case rec.Event != nil:
			if rec.Event.Kind == "" {
				return n, fmt.Errorf("audit: ledger line %d: event has no kind", line)
			}
		default:
			return n, fmt.Errorf("audit: ledger line %d: missing decision", line)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
