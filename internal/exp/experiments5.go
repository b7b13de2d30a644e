package exp

import (
	"fmt"

	"adatm"
	"adatm/internal/tensor"
)

// E17InitQuality compares random factor initialization against HOSVD-style
// nvecs initialization: iterations to reach a fit threshold on planted
// low-rank tensors.
func E17InitQuality(cfg Config) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "extension: random vs nvecs (HOSVD-style) initialization",
		Columns: []string{"tensor", "threshold", "random: iters", "random: final fit", "nvecs: iters", "nvecs: final fit"},
	}
	cases := []struct {
		name   string
		x      *tensor.COO
		rank   int
		thresh float64
	}{
		{"planted-3d (dense rank-3)", tensor.DenseLowRank([]int{20, 18, 16}, 3, 0.01, 811), 3, 0.95},
		{"planted-4d (dense rank-2)", tensor.DenseLowRank([]int{12, 10, 10, 8}, 2, 0.01, 812), 2, 0.95},
	}
	for _, c := range cases {
		run := func(init []*adatm.Matrix) (int, float64) {
			res, err := adatm.Decompose(c.x, adatm.Options{
				Rank: c.rank, MaxIters: 80, Tol: 1e-12, Seed: 5, Workers: cfg.Workers,
				Engine: adatm.EngineCSF, Init: init, TrackFit: true,
			})
			if err != nil {
				panic(err)
			}
			for i, f := range res.FitTrace {
				if f >= c.thresh {
					return i + 1, res.Fit
				}
			}
			return res.Iters, res.Fit
		}
		ri, rf := run(nil)
		ni, nf := run(adatm.NVecsInit(c.x, c.rank, 5, 9, cfg.Workers))
		t.Add(c.name, fmt.Sprintf("fit>=%.2f", c.thresh), ri, fmt.Sprintf("%.4f", rf), ni, fmt.Sprintf("%.4f", nf))
	}
	t.Notes = append(t.Notes, "nvecs typically needs no more iterations than random to cross the threshold; the advantage is data-dependent")
	return t
}
