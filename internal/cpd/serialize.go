package cpd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"adatm/internal/ckpt"
	"adatm/internal/dense"
)

// Model serialization: a portable JSON container for fitted CP models
// (λ + factor matrices), so decompositions can be computed once and reused
// by downstream tools.

// modelJSON is the on-disk schema.
type modelJSON struct {
	Format  string       `json:"format"` // "adatm-cp/v1"
	Order   int          `json:"order"`
	Rank    int          `json:"rank"`
	Lambda  []float64    `json:"lambda"`
	Factors []matrixJSON `json:"factors"`
}

type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

const modelFormat = "adatm-cp/v1"

// WriteModel serializes λ and the factor matrices to w as JSON.
func WriteModel(w io.Writer, lambda []float64, factors []*dense.Matrix) error {
	if len(factors) == 0 {
		return fmt.Errorf("cpd: no factors to serialize")
	}
	m := modelJSON{
		Format: modelFormat,
		Order:  len(factors),
		Rank:   factors[0].Cols,
		Lambda: lambda,
	}
	for i, f := range factors {
		if f.Cols != m.Rank {
			return fmt.Errorf("cpd: factor %d has %d columns, want %d", i, f.Cols, m.Rank)
		}
		m.Factors = append(m.Factors, matrixJSON{Rows: f.Rows, Cols: f.Cols, Data: f.Data})
	}
	if lambda != nil && len(lambda) != m.Rank {
		return fmt.Errorf("cpd: lambda has %d entries for rank %d", len(lambda), m.Rank)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&m)
}

// ReadModel parses a model written by WriteModel.
func ReadModel(r io.Reader) (lambda []float64, factors []*dense.Matrix, err error) {
	var m modelJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, nil, fmt.Errorf("cpd: parsing model: %w", err)
	}
	if m.Format != modelFormat {
		return nil, nil, fmt.Errorf("cpd: unsupported model format %q", m.Format)
	}
	if m.Order != len(m.Factors) || m.Order == 0 {
		return nil, nil, fmt.Errorf("cpd: order %d with %d factors", m.Order, len(m.Factors))
	}
	if m.Lambda != nil && len(m.Lambda) != m.Rank {
		return nil, nil, fmt.Errorf("cpd: lambda length %d for rank %d", len(m.Lambda), m.Rank)
	}
	for i, fj := range m.Factors {
		// Rows is bounded by len(Data)/Cols before the product is formed,
		// so a huge Rows cannot wrap Rows*Cols around to len(Data).
		if fj.Cols < 1 || fj.Cols != m.Rank || fj.Rows < 0 || fj.Rows > len(fj.Data)/fj.Cols || len(fj.Data) != fj.Rows*fj.Cols {
			return nil, nil, fmt.Errorf("cpd: factor %d is malformed (%dx%d, %d values)", i, fj.Rows, fj.Cols, len(fj.Data))
		}
		factors = append(factors, &dense.Matrix{Rows: fj.Rows, Cols: fj.Cols, Data: fj.Data})
	}
	if err := validateModelFinite(m.Lambda, factors); err != nil {
		return nil, nil, err
	}
	return m.Lambda, factors, nil
}

// validateModelFinite rejects NaN/Inf in a deserialized model with the
// offending location named — the same policy ReadTNS applies to tensor
// values, so a corrupt model or checkpoint cannot be silently loaded.
// (encoding/json cannot produce non-finite numbers itself, but other
// writers and binary corruption can; this is the schema's invariant, not
// the decoder's.)
func validateModelFinite(lambda []float64, factors []*dense.Matrix) error {
	for i, v := range lambda {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cpd: lambda[%d] is non-finite (%g)", i, v)
		}
	}
	for m, f := range factors {
		for k, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cpd: factor %d entry (%d,%d) is non-finite (%g)", m, k/f.Cols, k%f.Cols, v)
			}
		}
	}
	return nil
}

// SaveModel writes a decomposition result to a file. The write is
// crash-atomic (temp file + fsync + rename): a process killed mid-save
// leaves the previous model file intact instead of a torn, half-encoded
// one.
func SaveModel(path string, res *Result) error {
	return ckpt.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteModel(w, res.Lambda, res.Factors)
	})
}

// LoadModel reads a decomposition previously written with SaveModel. Only
// λ and the factors round-trip; run statistics are not persisted.
func LoadModel(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lambda, factors, err := ReadModel(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return &Result{Lambda: lambda, Factors: factors}, nil
}
