package ckpt

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"adatm/internal/dense"
)

// Format is the versioned checkpoint container identifier.
const Format = "adatm-ckpt/v1"

// Checkpoint is the complete CP-ALS loop state at an iteration boundary:
// everything a resumed run needs to continue bit-for-bit where the crashed
// run left off. Factors are the column-normalized matrices at the end of
// iteration Iter; Fit is the fit computed that iteration (the resumed run's
// convergence test compares against it exactly as the uninterrupted loop
// would have).
type Checkpoint struct {
	Iter     int
	Fit      float64
	Lambda   []float64
	Factors  []*dense.Matrix
	FitTrace []float64 // per-iteration fit history (present when tracked)
	Seed     int64     // initialization seed of the original run (informational)
	// Fingerprint binds the checkpoint to one (tensor, run-parameter)
	// pair; Resume refuses a checkpoint whose fingerprint does not match
	// the tensor and options it is asked to continue.
	Fingerprint string
}

// checkpointJSON is the on-disk schema.
type checkpointJSON struct {
	Format      string       `json:"format"`
	Iter        int          `json:"iter"`
	Fit         float64      `json:"fit"`
	Lambda      []float64    `json:"lambda"`
	Factors     []matrixJSON `json:"factors"`
	FitTrace    []float64    `json:"fit_trace,omitempty"`
	Seed        int64        `json:"seed"`
	Fingerprint string       `json:"fingerprint"`
}

type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// Validate checks structural soundness and rejects non-finite state: a
// checkpoint carrying NaN/Inf must never be silently resumed (the poisoned
// values would propagate through every remaining iteration).
func (c *Checkpoint) Validate() error {
	if c.Iter < 1 {
		return fmt.Errorf("ckpt: iteration %d is not positive", c.Iter)
	}
	if len(c.Factors) == 0 {
		return fmt.Errorf("ckpt: no factors")
	}
	r := c.Factors[0].Cols
	if len(c.Lambda) != r {
		return fmt.Errorf("ckpt: lambda has %d entries for rank %d", len(c.Lambda), r)
	}
	for i, v := range c.Lambda {
		if !isFinite(v) {
			return fmt.Errorf("ckpt: lambda[%d] is non-finite (%g)", i, v)
		}
	}
	if !isFinite(c.Fit) {
		// -Inf is the loop's pre-first-fit sentinel and never checkpointed.
		return fmt.Errorf("ckpt: fit is non-finite (%g)", c.Fit)
	}
	for m, f := range c.Factors {
		// Rows is bounded by len(Data)/Cols before the product is formed,
		// so a huge Rows cannot wrap Rows*Cols around to len(Data).
		if f == nil || f.Cols < 1 || f.Cols != r || f.Rows < 0 || f.Rows > len(f.Data)/f.Cols || len(f.Data) != f.Rows*f.Cols {
			return fmt.Errorf("ckpt: factor %d is malformed", m)
		}
		for k, v := range f.Data {
			if !isFinite(v) {
				return fmt.Errorf("ckpt: factor %d entry (%d,%d) is non-finite (%g)", m, k/f.Cols, k%f.Cols, v)
			}
		}
	}
	for i, v := range c.FitTrace {
		if !isFinite(v) {
			return fmt.Errorf("ckpt: fit_trace[%d] is non-finite (%g)", i, v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Write serializes the checkpoint to w, validating first so a poisoned
// in-memory state is refused rather than persisted.
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	j := checkpointJSON{
		Format:      Format,
		Iter:        c.Iter,
		Fit:         c.Fit,
		Lambda:      c.Lambda,
		FitTrace:    c.FitTrace,
		Seed:        c.Seed,
		Fingerprint: c.Fingerprint,
	}
	for _, f := range c.Factors {
		j.Factors = append(j.Factors, matrixJSON{Rows: f.Rows, Cols: f.Cols, Data: f.Data})
	}
	return json.NewEncoder(w).Encode(&j)
}

// Read parses and validates a checkpoint written by Write. Corrupt input —
// wrong version, malformed shapes, non-finite values — is rejected with the
// offending location in the error.
func Read(r io.Reader) (*Checkpoint, error) {
	var j checkpointJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("ckpt: parsing checkpoint: %w", err)
	}
	if j.Format != Format {
		return nil, fmt.Errorf("ckpt: unsupported checkpoint format %q", j.Format)
	}
	c := &Checkpoint{
		Iter:        j.Iter,
		Fit:         j.Fit,
		Lambda:      j.Lambda,
		FitTrace:    j.FitTrace,
		Seed:        j.Seed,
		Fingerprint: j.Fingerprint,
	}
	for _, fj := range j.Factors {
		c.Factors = append(c.Factors, &dense.Matrix{Rows: fj.Rows, Cols: fj.Cols, Data: fj.Data})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Meta is the run-parameter half of a fingerprint: the knobs that change
// the ALS trajectory and therefore must match between the checkpointed run
// and the resuming one. The initialization seed is deliberately excluded —
// the factors themselves are in the checkpoint, so the seed only matters
// for the original initialization.
type Meta struct {
	Rank        int
	Ridge       float64
	NonNegative bool
	ModeOrder   []int
}

// Fingerprint hashes a tensor (dims, nonzero pattern, values) together with
// the run parameters into the stable identity a checkpoint is bound to.
// The index slices use the tensor package's Index representation (int32)
// without importing it, keeping this package a leaf below tensor.
func Fingerprint(dims []int, inds [][]int32, vals []float64, m Meta) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(dims)))
	for _, d := range dims {
		put(uint64(d))
	}
	put(uint64(len(vals)))
	for _, ind := range inds {
		for _, i := range ind {
			put(uint64(uint32(i)))
		}
	}
	for _, v := range vals {
		put(math.Float64bits(v))
	}
	put(uint64(m.Rank))
	put(math.Float64bits(m.Ridge))
	if m.NonNegative {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(m.ModeOrder)))
	for _, o := range m.ModeOrder {
		put(uint64(o))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
