package obs

import (
	"fmt"
	"sort"
)

// StageSkew is the cross-rank imbalance of one stage: the slowest rank's
// mean ms/iteration against the cluster's (lower) median. A skew near 1
// means the stage is balanced; a persistently high skew names the stage —
// and SlowRank the rank — where the barrier time goes.
type StageSkew struct {
	MaxMS    float64 `json:"max_ms"`
	MedianMS float64 `json:"median_ms"`
	Skew     float64 `json:"skew"`
	SlowRank int     `json:"slow_rank"`
}

// Summary is the machine-readable aggregation of an event stream's non-span
// events, the "summary" half of ocd-analyze -json: per-stage ms/iteration
// (per-rank mean, then max across ranks — the slowest rank bounds every
// barrier-separated phase, the same convention as Phases.Fold), total DKV
// traffic, the straggler report, and the perplexity trajectory endpoint.
type Summary struct {
	Ranks          int                `json:"ranks"`
	Iterations     int                `json:"iterations"`
	Events         int                `json:"events"`
	StageMSPerIter map[string]float64 `json:"stage_ms_per_iter"`
	// StageSkew reports, per stage seen on at least two ranks, how much the
	// slowest rank exceeds the median — the per-phase ("per collective tag")
	// half of the straggler report.
	StageSkew map[string]StageSkew `json:"stage_skew,omitempty"`
	DKV       DKVCounters          `json:"dkv"`
	// PeerWaitMS[p] totals the recv-wait peer p imposed on the other ranks
	// (summed per-peer wait deltas of every iter event, diagonal excluded);
	// PeerSkew and Stragglers apply the StragglerWaits rule to it.
	PeerWaitMS      map[int]float64 `json:"peer_wait_ms,omitempty"`
	PeerSkew        float64         `json:"peer_skew,omitempty"`
	Stragglers      []int           `json:"stragglers,omitempty"`
	FinalPerplexity float64         `json:"final_perplexity,omitempty"`
	// StartIter is the first iteration in the stream — non-zero for a run
	// resumed from a checkpoint, whose iter events pick up at the restart
	// point rather than 0.
	StartIter int `json:"start_iter,omitempty"`
	// Rebalances counts the rebalance events (share-changing windows of the
	// straggler mitigation); FinalWeights is the share vector of the last
	// one.
	Rebalances   int       `json:"rebalances,omitempty"`
	FinalWeights []float64 `json:"final_weights,omitempty"`
	ElapsedMS    float64   `json:"elapsed_ms"`
}

// Summarize folds a validated event stream into a Summary. It checks the
// stream-level invariants the schema cannot express per-line: per-rank iter
// events must be consecutive from a common base iteration (0 for a fresh
// run; the restart point for a run resumed from a checkpoint), and every
// rank must report the same base and iteration count. A stream with no iter
// events at all — a run that crashed before finishing its first iteration,
// truncated to its run_start — is legal and yields a zero-iteration Summary
// rather than an error.
func Summarize(events []Event) (*Summary, error) {
	s := &Summary{StageMSPerIter: map[string]float64{}}
	// Per-rank accumulation: stage sums, first iteration, iteration counts.
	type rankAcc struct {
		stages map[string]float64
		base   int
		iters  int
	}
	acc := map[int]*rankAcc{}
	peerWait := map[int]float64{}
	for i := range events {
		e := &events[i]
		if e.Type == EventSpan {
			continue // the timeline is AnalyzeCriticalPath's (TraceFromEvents)
		}
		s.Events++
		switch e.Type {
		case EventRunStart:
			s.Ranks = e.Ranks
		case EventIter:
			a := acc[e.Rank]
			if a == nil {
				a = &rankAcc{stages: map[string]float64{}, base: e.Iter}
				acc[e.Rank] = a
			}
			if e.Iter != a.base+a.iters {
				return nil, fmt.Errorf("obs: rank %d iter events not consecutive: got %d, want %d",
					e.Rank, e.Iter, a.base+a.iters)
			}
			a.iters++
			for name, ms := range e.StagesMS {
				a.stages[name] += ms
			}
			s.DKV = addDKV(s.DKV, e.DKV)
			for peer, ms := range e.PeerWaitMS {
				if peer != e.Rank {
					peerWait[peer] += ms
				}
			}
		case EventPerplexity:
			s.FinalPerplexity = e.Perplexity
		case EventRebalance:
			s.Rebalances++
			s.FinalWeights = e.Weights
		case EventRunEnd:
			if e.ElapsedMS > s.ElapsedMS {
				s.ElapsedMS = e.ElapsedMS
			}
		}
	}
	if s.Ranks == 0 {
		s.Ranks = len(acc)
	}
	first := true
	for _, rank := range sortedKeys(acc) {
		a := acc[rank]
		if first {
			s.Iterations = a.iters
			s.StartIter = a.base
			first = false
		} else {
			if a.iters != s.Iterations {
				return nil, fmt.Errorf("obs: rank %d reported %d iterations, others %d",
					rank, a.iters, s.Iterations)
			}
			if a.base != s.StartIter {
				return nil, fmt.Errorf("obs: rank %d iter events start at %d, others at %d",
					rank, a.base, s.StartIter)
			}
		}
		for name, total := range a.stages {
			perIter := total / float64(a.iters)
			if perIter > s.StageMSPerIter[name] {
				s.StageMSPerIter[name] = perIter
			}
		}
	}
	s.addStageSkew(func(rank int) (map[string]float64, int) {
		a := acc[rank]
		if a == nil {
			return nil, 0
		}
		return a.stages, a.iters
	}, sortedKeys(acc))
	if len(peerWait) > 0 {
		s.PeerWaitMS = peerWait
		// Stretch the wait map onto a dense per-peer vector so the shared
		// flagging rule (and its median) sees silent peers as zero wait.
		maxPeer := 0
		for p := range peerWait {
			if p > maxPeer {
				maxPeer = p
			}
		}
		if s.Ranks > maxPeer+1 {
			maxPeer = s.Ranks - 1
		}
		waits := make([]float64, maxPeer+1)
		for p, w := range peerWait {
			waits[p] = w
		}
		rep := StragglerWaits(waits)
		s.PeerSkew = rep.Skew
		s.Stragglers = rep.Flagged
	}
	return s, nil
}

// addStageSkew computes the per-stage cross-rank skew from the per-rank
// stage means; stages reported by fewer than two ranks (the master-only
// draw_minibatch) are skipped.
func (s *Summary) addStageSkew(rankStages func(rank int) (map[string]float64, int), ranks []int) {
	if len(ranks) < 2 {
		return
	}
	type sample struct {
		rank int
		ms   float64
	}
	byStage := map[string][]sample{}
	for _, rank := range ranks {
		stages, iters := rankStages(rank)
		for name, total := range stages {
			byStage[name] = append(byStage[name], sample{rank, total / float64(iters)})
		}
	}
	for name, samples := range byStage {
		if len(samples) < 2 {
			continue
		}
		sorted := append([]sample(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms < sorted[j].ms })
		max := sorted[len(sorted)-1]
		median := sorted[(len(sorted)-1)/2].ms
		denom := median
		if denom < stageSkewFloorMS {
			denom = stageSkewFloorMS
		}
		if s.StageSkew == nil {
			s.StageSkew = map[string]StageSkew{}
		}
		s.StageSkew[name] = StageSkew{
			MaxMS:    max.ms,
			MedianMS: median,
			Skew:     max.ms / denom,
			SlowRank: max.rank,
		}
	}
}

// stageSkewFloorMS clamps the skew denominator so a stage whose median is
// microseconds cannot report an astronomically large (and meaningless) skew.
const stageSkewFloorMS = 0.001

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// addDKV accumulates an optional per-event DKV block.
func addDKV(acc DKVCounters, d *DKVCounters) DKVCounters {
	if d == nil {
		return acc
	}
	acc.LocalKeys += d.LocalKeys
	acc.RemoteKeys += d.RemoteKeys
	acc.Requests += d.Requests
	acc.BytesRead += d.BytesRead
	acc.BytesWritten += d.BytesWritten
	return acc
}
