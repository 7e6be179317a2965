package engine

import (
	"math"
	"testing"
)

// The state-machine tests drive the one policy: window bookkeeping is
// external (ObserveWindow is fed one vector per window), a share shrinks
// after 2 consecutive flagged windows and restores after 4 healthy ones, in
// quarter steps, down to a full drain.

// newRebalancer builds a rebalancer for the given cluster size.
func newRebalancer(t *testing.T, ranks int) *Rebalancer {
	t.Helper()
	rb, err := NewRebalancer(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// feed drives the rebalancer with a sequence of per-window imposed-wait
// vectors and returns rank `watch`'s weight after each window.
func feed(t *testing.T, rb *Rebalancer, windows [][]float64, watch int) []float64 {
	t.Helper()
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		weights, _ := rb.ObserveWindow(w)
		out = append(out, weights[watch])
	}
	return out
}

func approxEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestRebalancerHysteresis(t *testing.T) {
	// Window vectors for a 3-rank cluster: "slow" flags rank 2 (it imposes
	// 100 ms against a ~1 ms median), "ok" flags nobody.
	slow := []float64{1, 1, 100}
	ok := []float64{1, 1, 1}

	cases := []struct {
		name    string
		windows [][]float64
		want    []float64 // rank 2's weight after each window
	}{
		{
			// A transient hiccup — alternating flagged and healthy windows —
			// never reaches the 2-consecutive-flag threshold, so
			// the share must not move at all.
			name:    "flap does not thrash",
			windows: [][]float64{slow, ok, slow, ok, slow, ok},
			want:    []float64{1, 1, 1, 1, 1, 1},
		},
		{
			// Sustained slowness: the first flagged window arms the streak,
			// the second shrinks, and every further flagged window shrinks by
			// one bounded step until the share drains to 0.
			name:    "sustained slow drains stepwise",
			windows: [][]float64{slow, slow, slow, slow, slow, slow, slow},
			want:    []float64{1, 0.75, 0.5, 0.25, 0, 0, 0},
		},
		{
			// Recovery: after a shrink, 4 consecutive healthy windows buy
			// one restore step; the streak then re-arms for the next step.
			name:    "recovery restores stepwise",
			windows: [][]float64{slow, slow, slow, ok, ok, ok, ok, ok, ok, ok, ok},
			want:    []float64{1, 0.75, 0.5, 0.5, 0.5, 0.5, 0.75, 0.75, 0.75, 0.75, 1},
		},
		{
			// Backoff: a rank that re-flags right after a probe restore
			// doubles its heal requirement, so the second restore needs 8
			// healthy windows, not 4 — the oscillation damper.
			name: "re-flag after restore doubles heal requirement",
			windows: [][]float64{
				slow, slow, // shrink to 0.75
				ok, ok, ok, ok, // restore to 1 (heal need 4)
				slow, slow, // shrink again to 0.75; restored since shrink → backoff to 8
				ok, ok, ok, ok, // only 4 healthy: not yet
				ok, ok, ok, ok, // 8 healthy: restore
			},
			want: []float64{1, 0.75, 0.75, 0.75, 0.75, 1, 1, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := feed(t, newRebalancer(t, 3), tc.windows, 2)
			if !approxEq(got, tc.want) {
				t.Fatalf("rank 2 weight trajectory:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestRebalancerBackoffForgiven pins the reset: once a rank climbs back to
// full share and stays healthy, its heal requirement returns to 4 windows
// (the doubled backoff is not a life sentence).
func TestRebalancerBackoffForgiven(t *testing.T) {
	slow := []float64{1, 100}
	ok := []float64{1, 1}
	rb := newRebalancer(t, 2)
	// Shrink, restore, shrink again (the re-flag doubles the heal need to 8)
	// and climb all the way back.
	var seq [][]float64
	for _, run := range []struct {
		w []float64
		n int
	}{{slow, 2}, {ok, 4}, {slow, 2}, {ok, 8}} {
		for i := 0; i < run.n; i++ {
			seq = append(seq, run.w)
		}
	}
	_ = feed(t, rb, seq, 1)
	if w := rb.Weights()[1]; w != 1 {
		t.Fatalf("rank 1 weight = %v after full recovery, want 1", w)
	}
	// One healthy window at full weight forgives the backoff; the next
	// shrink+heal cycle restores after 4 healthy windows again, where an
	// unforgiven rank would need 16.
	for _, w := range [][]float64{ok, slow, slow, ok, ok, ok, ok} {
		rb.ObserveWindow(w)
	}
	if w := rb.Weights()[1]; w != 1 {
		t.Fatalf("rank 1 weight = %v, want 1 (heal requirement should be back to 4 windows)", w)
	}
}

// TestRebalancerMinShareFloor pins the share floor: a persistent straggler
// drains to weight 0 and stays there, and the healthy ranks never move.
func TestRebalancerMinShareFloor(t *testing.T) {
	slow := []float64{1, 1, 50}
	rb := newRebalancer(t, 3)
	for i := 0; i < 8; i++ {
		rb.ObserveWindow(slow)
	}
	if w := rb.Weights(); w[0] != 1 || w[1] != 1 || w[2] != 0 {
		t.Fatalf("weights %v after a sustained straggler, want [1 1 0]", w)
	}
}

// TestRebalancerChangedFlag checks the changed return: windows that neither
// shrink nor restore report false, so the engine can skip re-broadcasting.
func TestRebalancerChangedFlag(t *testing.T) {
	slow := []float64{1, 80}
	ok := []float64{1, 1}
	rb := newRebalancer(t, 2)
	if _, changed := rb.ObserveWindow(slow); changed {
		t.Fatal("first flagged window changed weights before the 2-window threshold")
	}
	if _, changed := rb.ObserveWindow(slow); !changed {
		t.Fatal("second consecutive flagged window should shrink")
	}
	if _, changed := rb.ObserveWindow(ok); changed {
		t.Fatal("healthy window below the heal threshold changed weights")
	}
	// Fully drained rank: further flagged windows change nothing.
	for i := 0; i < 10; i++ {
		rb.ObserveWindow(slow)
	}
	if _, changed := rb.ObserveWindow(slow); changed {
		t.Fatal("flagged window at the floor should not report a change")
	}
}

func TestRebalancerReport(t *testing.T) {
	rb := newRebalancer(t, 3)
	if rb.LastReport() != nil {
		t.Fatal("report before any window")
	}
	rb.ObserveWindow([]float64{1, 1, 100})
	rep := rb.LastReport()
	if rep == nil || len(rep.Flagged) != 1 || rep.Flagged[0] != 2 {
		t.Fatalf("window report = %+v, want rank 2 flagged", rep)
	}
}

// TestRebalancerLastWorkerNeverDrains pins the active-rank restriction: once
// every other rank is drained, the survivor is doing ALL the work — the
// drained ranks' blocking on it reads as imposed wait, and without the
// restriction the rule would flag the survivor for being busy, drain it too,
// and the all-zero uniform fallback would hand the straggler its full share
// back. The survivor must be unflaggable; the drained rank must still probe
// back in via restore.
func TestRebalancerLastWorkerNeverDrains(t *testing.T) {
	rb := newRebalancer(t, 2)
	// Drain rank 1: 5 flagged windows take it 1 → 0.75 → 0.5 → 0.25 → 0.
	for i := 0; i < 5; i++ {
		rb.ObserveWindow([]float64{0, 100})
	}
	if w := rb.Weights(); w[0] != 1 || w[1] != 0 {
		t.Fatalf("after drain: weights %v, want [1 0]", w)
	}
	// Rank 0 now does everything; rank 1 blocks on it every collective, so
	// the raw wait vector pins rank 0 as the "straggler". With only one
	// active rank the rule must not fire — in particular not on rank 0.
	weights, changed := rb.ObserveWindow([]float64{500, 0})
	if changed || weights[0] != 1 {
		t.Fatalf("lone worker shrunk: weights %v (changed %v)", weights, changed)
	}
	if f := rb.LastReport().Flagged; len(f) != 0 {
		t.Fatalf("lone worker flagged: %v", f)
	}
	// The drained rank keeps healing through those windows: 4 healthy
	// windows in all trigger its restore probe (one already counted above),
	// after which both ranks are active and the rule arms again.
	rb.ObserveWindow([]float64{500, 0})
	rb.ObserveWindow([]float64{500, 0})
	weights, changed = rb.ObserveWindow([]float64{500, 0})
	if !changed || weights[1] != 0.25 {
		t.Fatalf("drained rank never probed back: weights %v (changed %v)", weights, changed)
	}
	// Probe came back slow: with both active again, two flagged windows
	// re-drain it (and rank 0, busy as it is, stays untouched).
	rb.ObserveWindow([]float64{0, 400})
	weights, _ = rb.ObserveWindow([]float64{0, 400})
	if weights[0] != 1 || weights[1] != 0 {
		t.Fatalf("after failed probe: weights %v, want [1 0]", weights)
	}
}
