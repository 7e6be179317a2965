package engine

import (
	"fmt"

	"repro/internal/obs"
)

// Rebalancing closes the straggler loop: the straggler rule
// (obs.StragglerWaits) *detects* a slow rank; the Rebalancer *acts* on it by
// shrinking that rank's minibatch share so the next window's deployments
// (SplitWeighted) move its chunks onto healthy ranks. Every φ draw is keyed
// by (iteration, vertex) and the θ fold is chunk-ordered, so re-sharding
// changes which rank does the work, not the estimator: the trained
// trajectory is bit-identical under any weight vector.
//
// The policy is one and fixed; only the window length is a setting
// (dist.Options.RebalanceWindow, the trainer's -rebalance-window). It is
// conservative in both directions, so one noisy window cannot thrash the
// shares:
//
//   - a share shrinks by shareStep after slowWindows consecutive flagged
//     windows, and again on every further one, down to 0 (SplitWeighted then
//     gives the rank an empty range; it still serves its π shard and takes
//     part in collectives);
//   - a shrunken share grows by shareStep after healWindows consecutive
//     healthy windows; a re-flag after a restore doubles that streak (up to
//     maxHealNeed), and a rank healthy at full share is forgiven.
const (
	// DefaultRebalanceWindow is the window, in iterations, when none is set:
	// imposed waits accumulate over a window before the rule runs once.
	DefaultRebalanceWindow = 8

	slowWindows = 2
	healWindows = 4
	maxHealNeed = 64   // cap of the doubled heal streak
	shareStep   = 0.25 // share delta per shrink or restore, full share = 1
)

// rankState is one rank's hysteresis state.
type rankState struct {
	weight     float64
	slowStreak int  // consecutive flagged windows
	healStreak int  // consecutive healthy windows while shrunken
	healNeed   int  // healthy windows required per restore step (backoff)
	restored   bool // a restore happened since the last shrink
}

// Rebalancer is the per-window mitigation state machine. It is a pure
// computation — no collectives, no clocks — so the distributed engine can
// run it at the master and broadcast the resulting weights, and tests can
// drive it with synthetic window vectors.
type Rebalancer struct {
	ranks  []rankState
	report *obs.PeerReport // last window's flagging report
}

// NewRebalancer creates a rebalancer for a cluster of the given size; every
// rank starts at full share (weight 1).
func NewRebalancer(ranks int) (*Rebalancer, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("engine: rebalancer needs at least 1 rank, got %d", ranks)
	}
	rb := &Rebalancer{ranks: make([]rankState, ranks)}
	for i := range rb.ranks {
		rb.ranks[i] = rankState{weight: 1, healNeed: healWindows}
	}
	return rb, nil
}

// Weights returns a copy of the current share weights.
func (rb *Rebalancer) Weights() []float64 {
	out := make([]float64, len(rb.ranks))
	for i := range rb.ranks {
		out[i] = rb.ranks[i].weight
	}
	return out
}

// LastReport returns the flagging report of the most recent window (nil
// before the first ObserveWindow).
func (rb *Rebalancer) LastReport() *obs.PeerReport { return rb.report }

// ObserveWindow feeds one completed window's per-rank imposed-wait totals
// (milliseconds; the recv-wait column sums of the straggler rule, summed
// over the window's iterations) and applies the hysteresis rule. It returns
// the updated weight vector and whether any weight changed this window.
// len(waitMS) must equal the rank count.
func (rb *Rebalancer) ObserveWindow(waitMS []float64) (weights []float64, changed bool) {
	if len(waitMS) != len(rb.ranks) {
		panic(fmt.Sprintf("engine: rebalancer built for %d ranks observed %d waits", len(rb.ranks), len(waitMS)))
	}
	// The flagging rule runs over the ranks that actually carry minibatch
	// work (weight > 0), and needs at least two of them. Without this
	// restriction the controller eats itself after draining a straggler:
	// the drained rank does no compute, arrives at every collective first,
	// and its blocking on the surviving workers reads as wait "imposed" by
	// them — so the rule flags the ranks doing the work, drains them too,
	// and once every weight is zero the uniform fallback of SplitWeighted
	// hands the real straggler its full share back. A drained rank can
	// still heal (it is never flagged) and probe back in via restore.
	var active []int
	for r := range rb.ranks {
		if rb.ranks[r].weight > 0 {
			active = append(active, r)
		}
	}
	rep := &obs.PeerReport{ImposedWaitMS: append([]float64(nil), waitMS...)}
	flagged := make([]bool, len(rb.ranks))
	if len(active) >= 2 {
		sub := make([]float64, len(active))
		for i, r := range active {
			sub[i] = waitMS[r]
		}
		subRep := obs.StragglerWaits(sub)
		rep.MedianMS, rep.MaxMS, rep.Skew = subRep.MedianMS, subRep.MaxMS, subRep.Skew
		for _, i := range subRep.Flagged {
			flagged[active[i]] = true
			rep.Flagged = append(rep.Flagged, active[i])
		}
	}
	rb.report = rep
	for r := range rb.ranks {
		st := &rb.ranks[r]
		if flagged[r] {
			st.healStreak = 0
			st.slowStreak++
			if st.slowStreak >= slowWindows {
				next := max(st.weight-shareStep, 0)
				if next != st.weight {
					st.weight = next
					changed = true
				}
				if st.restored {
					// Re-flagged after a probe restore: back off the next
					// restore exponentially.
					st.restored = false
					if st.healNeed < maxHealNeed {
						st.healNeed *= 2
						if st.healNeed > maxHealNeed {
							st.healNeed = maxHealNeed
						}
					}
				}
			}
			continue
		}
		st.slowStreak = 0
		if st.weight >= 1 {
			// Fully restored and healthy: forgive the backoff history.
			st.healStreak = 0
			st.healNeed = healWindows
			st.restored = false
			continue
		}
		st.healStreak++
		if st.healStreak >= st.healNeed {
			st.healStreak = 0
			st.restored = true
			st.weight = min(st.weight+shareStep, 1)
			changed = true
		}
	}
	return rb.Weights(), changed
}
