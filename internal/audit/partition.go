package audit

import (
	"fmt"
	"log/slog"
	"time"

	"adatm/internal/model"
)

// Partition-selection auditing: the distributed layer's partitioner choice
// is a model-driven decision exactly like format selection, so it flows
// through the same ledger. A partition decision is recorded as a Record
// carrying both the Decision (so ValidateLedger and the /plan endpoint see
// a chosen candidate with evidence) and a "dist.partition" lifecycle Event
// (so log/ledger consumers can filter distributed runs). It deliberately
// does NOT become the recorder's pending decision: Reconcile pairs the
// pending *format* decision with the run's measured counters, and a
// partition decision has no op-count reconciliation.

// ReasonCommOptimal: the chosen partitioner had the lowest predicted
// per-iteration time (slowest-process compute + α–β communication).
const ReasonCommOptimal = "comm-optimal"

// ReasonUserForced: the run named its partitioner, so the decision holds
// that one candidate, scored alone.
const ReasonUserForced = "user-forced"

// EventPartition is the ledger event kind for a partition decision.
const EventPartition = "dist.partition"

// PartitionCandidateRecord is one scored partitioner in a partition
// decision, flattened to plain data for the ledger.
type PartitionCandidateRecord struct {
	Name string `json:"name"`
	// VolumeRows is Σ (connectivity − 1) over all modes and rows: the fold
	// row volume per iteration (expands mirror it).
	VolumeRows int64 `json:"volume_rows"`
	// VolumeBytes is the fold+expand byte volume per iteration at the
	// decision's rank.
	VolumeBytes int64 `json:"volume_bytes"`
	// Messages is the distinct sender→owner pair count per iteration.
	Messages  int64   `json:"messages"`
	Imbalance float64 `json:"imbalance"`
	// PredComputeNS/PredCommNS/PredNS are the cost-model forecast the
	// ranking used (PredNS = compute + comm).
	PredComputeNS float64 `json:"pred_compute_ns"`
	PredCommNS    float64 `json:"pred_comm_ns"`
	PredNS        float64 `json:"pred_ns"`
}

// NewPartitionDecision flattens a scored model.PartitionPlan into a
// Decision. Transport names the wire the run will use ("chan", "tcp").
func NewPartitionDecision(p *model.PartitionPlan, transport string) *Decision {
	d := &Decision{
		Time:      time.Now(),
		NNZ:       int64(p.NNZ),
		Rank:      p.Rank,
		Kind:      "partition",
		Procs:     p.Procs,
		Transport: transport,
		Chosen:    p.Chosen.Name,
		Reason:    ReasonCommOptimal,
	}
	d.Partition = make([]PartitionCandidateRecord, len(p.Candidates))
	for i, c := range p.Candidates {
		d.Partition[i] = PartitionCandidateRecord{
			Name:          c.Name,
			VolumeRows:    c.Comm.TotalRows,
			VolumeBytes:   c.Comm.VolumeBytes(p.Rank),
			Messages:      c.Comm.Messages,
			Imbalance:     c.Imbalance,
			PredComputeNS: c.ComputeNS,
			PredCommNS:    c.CommNS,
			PredNS:        c.PredNS,
		}
	}
	return d
}

// RecordPartition appends the partition decision to the ledger (as a
// decision + "dist.partition" event record), emits the structured log
// event, and refreshes the OnUpdate hook. Unlike RecordDecision it never
// replaces the recorder's pending decision — the format decision still owns
// the end-of-run reconciliation.
func (r *Recorder) RecordPartition(d *Decision) {
	if r == nil || d == nil {
		return
	}
	ev := &Event{
		Kind: EventPartition,
		Detail: fmt.Sprintf("procs=%d transport=%s chosen=%s candidates=%d",
			d.Procs, d.Transport, d.Chosen, len(d.Partition)),
	}
	if lg := r.cfg.Logger; lg != nil {
		attrs := []any{
			slog.String("chosen", d.Chosen),
			slog.String("reason", d.Reason),
			slog.Int("procs", d.Procs),
			slog.String("transport", d.Transport),
			slog.Int("candidates", len(d.Partition)),
			slog.Int("rank", d.Rank),
			slog.Int64("nnz", d.NNZ),
		}
		if c := d.PartitionCandidate(d.Chosen); c != nil {
			attrs = append(attrs,
				slog.Int64("volume_bytes", c.VolumeBytes),
				slog.Int64("messages", c.Messages),
				slog.Float64("pred_ns", c.PredNS))
		}
		lg.Info("run."+EventPartition, attrs...)
	}
	if err := r.ledger.Append(Record{Decision: d, Event: ev}); err != nil && r.cfg.Logger != nil {
		r.cfg.Logger.Error("model.ledger_append", slog.String("error", err.Error()))
	}
	if fn := r.cfg.OnUpdate; fn != nil {
		fn(Record{Decision: d, Event: ev})
	}
}

// PartitionCandidate returns the named partition candidate record, or nil.
func (d *Decision) PartitionCandidate(name string) *PartitionCandidateRecord {
	for i := range d.Partition {
		if d.Partition[i].Name == name {
			return &d.Partition[i]
		}
	}
	return nil
}
