package stats

import "mergepath/internal/core"

// LoadSummary condenses the per-worker element counts of one balanced
// round into the numbers the paper's load-balance guarantee is stated
// in: Theorem 5 promises every worker merges within one element of
// total/p, so Min and Max differ by at most 1 and Imbalance sits at
// ~1.0 whenever the guarantee holds. The service layer records one
// summary per round and exports the latest plus running max/mean on its
// metrics surface.
type LoadSummary struct {
	// Workers is how many workers the round actually engaged (after
	// clamping to the total output size).
	Workers int `json:"workers"`
	// Min is the smallest number of output elements any worker produced.
	Min int `json:"min_elements"`
	// Max is the largest number of output elements any worker produced.
	Max int `json:"max_elements"`
	// Mean is the arithmetic mean of elements per worker.
	Mean float64 `json:"mean_elements"`
	// Imbalance is Max/Min — 1.0 is perfect balance. When Min is 0 but
	// Max is not (a worker did nothing while another worked; impossible
	// under merge-path partitioning, possible for naive schedulers) the
	// true ratio is unbounded, so it is reported as float64(Max): large,
	// finite, and JSON-encodable.
	Imbalance float64 `json:"imbalance"`
}

// SummarizeLoads computes the LoadSummary of a round from its
// per-worker output element counts. An empty slice yields the zero
// summary.
func SummarizeLoads(elems []int) LoadSummary {
	if len(elems) == 0 {
		return LoadSummary{}
	}
	s := LoadSummary{Workers: len(elems), Min: elems[0], Max: elems[0]}
	total := 0
	for _, e := range elems {
		total += e
		if e < s.Min {
			s.Min = e
		}
		if e > s.Max {
			s.Max = e
		}
	}
	s.Mean = float64(total) / float64(len(elems))
	switch {
	case s.Min > 0:
		s.Imbalance = float64(s.Max) / float64(s.Min)
	case s.Max > 0:
		s.Imbalance = float64(s.Max)
	default:
		s.Imbalance = 1 // no work, no imbalance
	}
	return s
}

// SummarizeWorkers is SummarizeLoads over the Elements of a round's
// per-worker stats (core.MergeRound).
func SummarizeWorkers(ws []core.WorkerStat) LoadSummary {
	elems := make([]int, len(ws))
	for i, w := range ws {
		elems[i] = w.Elements
	}
	return SummarizeLoads(elems)
}

// WorkerLoad is one worker's share of a balanced merge round as the
// metrics surfaces render it: output elements produced, distinct pairs
// (whole or partial) touched, and the worker's time split between
// locating work (offset + diagonal searches) and merging, in float
// milliseconds (see Millis).
type WorkerLoad struct {
	Elements int     `json:"elements"`  // output elements this worker produced
	Pairs    int     `json:"pairs"`     // distinct pairs (whole or partial) it touched
	SearchMS float64 `json:"search_ms"` // offset-table + diagonal searches
	MergeMS  float64 `json:"merge_ms"`  // emitting output elements
}

// WorkerLoads renders a round's per-worker stats as WorkerLoads.
func WorkerLoads(ws []core.WorkerStat) []WorkerLoad {
	loads := make([]WorkerLoad, len(ws))
	for i, w := range ws {
		loads[i] = WorkerLoad{Elements: w.Elements, Pairs: w.Pairs, SearchMS: Millis(w.Search), MergeMS: Millis(w.Merge)}
	}
	return loads
}
