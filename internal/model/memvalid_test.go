package model

import (
	"math/rand"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/memo"
	"adatm/internal/tensor"
)

// With exact projection counts, the model's index-byte prediction must match
// the engine's measured symbolic storage EXACTLY (same formula, real
// counts; with the root children streamed, the stream bytes on both sides),
// and the peak-value-byte prediction must match the engine's measured peak
// under the ALS sweep protocol.
func TestPredictMemoryMatchesEngine(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, order := range []int{3, 4, 5} {
			x := tensor.RandomClustered(order, 12, 600, 0.8, seed*100+int64(order))
			est := NewExactEstimator(x)
			strategies := []*memo.Strategy{memo.Flat(order), memo.Balanced(order)}
			if order >= 3 {
				strategies = append(strategies, memo.TwoGroup(order, order/2))
			}
			for _, s := range strategies {
				for _, stream := range []bool{true, false} {
					checkPredictedMemory(t, x, est, s, stream, seed)
				}
			}
		}
	}
}

func checkPredictedMemory(t *testing.T, x *tensor.COO, est *Estimator, s *memo.Strategy, stream bool, seed int64) {
	t.Helper()
	order := x.Order()
	rank := 8
	pred := Predict(est, s, rank)
	eng, err := memo.NewWithConfig(x, s, memo.Config{Workers: 1, StreamRoot: stream})
	if err != nil {
		t.Fatal(err)
	}
	// Drive two full ALS sweeps so the peak reaches steady state.
	fs := make([]*dense.Matrix, order)
	rng := rand.New(rand.NewSource(seed))
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], rank, rng)
	}
	for iter := 0; iter < 2; iter++ {
		for mode := 0; mode < order; mode++ {
			out := dense.New(x.Dims[mode], rank)
			eng.MTTKRP(mode, fs, out)
			eng.FactorUpdated(mode)
		}
	}
	stats := eng.Stats()
	wantIndex := pred.IndexBytes
	if stream {
		wantIndex += pred.StreamBytes
	}
	if wantIndex != stats.IndexBytes {
		t.Errorf("order %d %s stream=%v: predicted index bytes %d != measured %d",
			order, s, stream, wantIndex, stats.IndexBytes)
	}
	if pred.PeakValueBytes != stats.PeakValueBytes {
		t.Errorf("order %d %s stream=%v: predicted peak value bytes %d != measured %d",
			order, s, stream, pred.PeakValueBytes, stats.PeakValueBytes)
	}
}
