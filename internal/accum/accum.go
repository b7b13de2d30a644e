// Package accum provides the output-accumulation backends of the parallel
// MTTKRP kernels. Every sparse engine ends its inner loop the same way: a
// length-R row is added into the output row owned by the nonzero's
// target-mode index, and distinct workers may own the same row. Two backends
// resolve that conflict:
//
//   - Scatter: workers add straight into the shared output under striped
//     locks (or lock-free where the engine guarantees distinct rows, as the
//     memoized leaf contraction does). No extra memory, but the lock pair
//     per nonzero dominates short row kernels and short target modes
//     collapse the stripes onto a handful of locks.
//
//   - Privatize: each worker accumulates into a private rows×R copy of the
//     output (arena-style, reused across iterations), and the W partials are
//     folded into the shared output afterwards by a parallel tiled
//     reduction. Lock-free scatter at the cost of W·rows·R·8 bytes of
//     footprint plus W·rows·R reduction flops.
//
// Neither backend wins everywhere — the trade is mode- and shape-dependent
// (few output rows favor privatization, tall outputs favor the scatter) —
// so the choice is made per (engine, mode) by the same analytical-model
// machinery that picks the MTTKRP algorithm: see Choose here and the
// model-layer integration in internal/model.
package accum

import "fmt"

// Strategy selects an output-accumulation backend.
type Strategy uint8

const (
	// Auto defers the choice to the cost model, per target mode.
	Auto Strategy = iota
	// Scatter accumulates into the shared output in place (striped locks,
	// or lock-free where rows are conflict-free by construction).
	Scatter
	// Privatize accumulates into per-worker private output copies and
	// parallel-reduces them into the shared output.
	Privatize
)

// String implements fmt.Stringer with the wire spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Scatter:
		return "scatter"
	case Privatize:
		return "privatize"
	default:
		return fmt.Sprintf("accum(%d)", uint8(s))
	}
}

// Parse converts the wire spelling ("auto", "scatter", "privatize") into a
// Strategy, as ledger records store it. The empty string means Auto.
func Parse(s string) (Strategy, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "scatter":
		return Scatter, nil
	case "privatize":
		return Privatize, nil
	default:
		return Auto, fmt.Errorf("accum: unknown strategy %q (want auto, scatter, or privatize)", s)
	}
}

// MarshalJSON renders the strategy as its string spelling, so audit records
// and /plan payloads stay human-readable.
func (s Strategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string spelling.
func (s *Strategy) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		v, err := Parse(string(b[1 : len(b)-1]))
		if err != nil {
			return err
		}
		*s = v
		return nil
	}
	return fmt.Errorf("accum: cannot unmarshal %q as a strategy", b)
}
