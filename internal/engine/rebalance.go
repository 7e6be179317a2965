package engine

import (
	"fmt"

	"repro/internal/obs"
)

// Rebalancing closes the straggler loop: the PeerMatrix straggler rule (and
// the critical-path verdict of ocd-analyze run.jsonl) *detects* a slow rank;
// the Rebalancer *acts* on it by shrinking that rank's minibatch share so
// the next window's deployments (SplitWeighted) move its chunks onto healthy
// ranks. Because every φ draw is keyed by (iteration, vertex) and the θ fold
// is chunk-ordered, re-sharding changes which rank does the work — not the
// estimator — so the mitigation is exact: the trained trajectory is
// bit-identical with any weight vector.
//
// The state machine is deliberately conservative (hysteresis in both
// directions, bounded step size, exponential restore backoff) so a transient
// hiccup — one garbage-collection pause, one noisy window — cannot thrash
// the shares.

// RebalanceConfig tunes the hysteresis state machine. The zero value of any
// field selects its default; DefaultRebalanceConfig spells them out.
type RebalanceConfig struct {
	// Window is the observation window in iterations: per-iteration imposed-
	// wait signals accumulate for Window iterations before the rule runs once.
	Window int
	// SlowWindows (the H of the hysteresis) is how many *consecutive* flagged
	// windows a rank must accumulate before its share first shrinks. Once
	// past the threshold, every further flagged window shrinks it again by
	// Step (bounded step size per window), so sustained slowness drains the
	// rank gradually rather than in one jump.
	SlowWindows int
	// HealWindows (the H') is how many consecutive healthy windows a shrunken
	// rank must show before each restore step. A rank that gets re-flagged
	// after a restore doubles its required heal streak (capped at
	// maxHealNeed) — the exponential backoff that keeps a persistently slow
	// rank from oscillating between drained and probing.
	HealWindows int
	// Step is the share delta applied per shrink or restore step, in absolute
	// weight (full share = 1).
	Step float64
	// MinShare floors a shrunken share. The default 0 lets a persistent
	// straggler drain completely: it then does no minibatch work (SplitWeighted
	// gives weight-0 ranks empty ranges) but still serves its π shard and
	// participates in collectives.
	MinShare float64
	// SkewFactor and FloorMS override the straggler flagging thresholds
	// (obs.StragglerSkew / obs.StragglerFloorMS) applied to each window's
	// imposed-wait vector.
	SkewFactor float64
	FloorMS    float64
}

// DefaultRebalanceConfig is the tuning used when fields are zero.
func DefaultRebalanceConfig() RebalanceConfig {
	return RebalanceConfig{
		Window:      8,
		SlowWindows: 2,
		HealWindows: 4,
		Step:        0.25,
		MinShare:    0,
		SkewFactor:  obs.StragglerSkew,
		FloorMS:     obs.StragglerFloorMS,
	}
}

// withDefaults fills zero fields from the default config.
func (c RebalanceConfig) withDefaults() RebalanceConfig {
	d := DefaultRebalanceConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.SlowWindows <= 0 {
		c.SlowWindows = d.SlowWindows
	}
	if c.HealWindows <= 0 {
		c.HealWindows = d.HealWindows
	}
	if c.Step <= 0 {
		c.Step = d.Step
	}
	if c.MinShare < 0 {
		c.MinShare = 0
	}
	if c.SkewFactor <= 0 {
		c.SkewFactor = d.SkewFactor
	}
	if c.FloorMS <= 0 {
		c.FloorMS = d.FloorMS
	}
	return c
}

// maxHealNeed caps the exponential restore backoff: a rank that keeps
// re-flagging after restores eventually needs this many consecutive healthy
// windows per restore step, but never more.
const maxHealNeed = 64

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
	cfg    RebalanceConfig
	ranks  []rankState
	report *obs.PeerReport // last window's flagging report
}

// NewRebalancer creates a rebalancer for a cluster of the given size; every
// rank starts at full share (weight 1).
func NewRebalancer(ranks int, cfg RebalanceConfig) (*Rebalancer, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("engine: rebalancer needs at least 1 rank, got %d", ranks)
	}
	rb := &Rebalancer{cfg: cfg.withDefaults(), ranks: make([]rankState, ranks)}
	for i := range rb.ranks {
		rb.ranks[i] = rankState{weight: 1, healNeed: rb.cfg.HealWindows}
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
		subRep := obs.StragglerWaits(sub, rb.cfg.SkewFactor, rb.cfg.FloorMS)
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
			if st.slowStreak >= rb.cfg.SlowWindows {
				next := st.weight - rb.cfg.Step
				if next < rb.cfg.MinShare {
					next = rb.cfg.MinShare
				}
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
			st.healNeed = rb.cfg.HealWindows
			st.restored = false
			continue
		}
		st.healStreak++
		if st.healStreak >= st.healNeed {
			st.healStreak = 0
			st.restored = true
			st.weight += rb.cfg.Step
			if st.weight > 1 {
				st.weight = 1
			}
			changed = true
		}
	}
	return rb.Weights(), changed
}
