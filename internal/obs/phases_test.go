package obs

import (
	"strings"
	"testing"
	"time"
)

func TestPhasesAddAndTotals(t *testing.T) {
	p := NewPhases()
	p.Add("a", 10*time.Millisecond)
	p.Add("a", 20*time.Millisecond)
	p.Add("b", 5*time.Millisecond)
	if p.Total("a") != 30*time.Millisecond {
		t.Fatalf("Total(a) = %v", p.Total("a"))
	}
	if p.Count("a") != 2 || p.Count("b") != 1 {
		t.Fatal("counts wrong")
	}
}

func TestPhasesNamesSorted(t *testing.T) {
	p := NewPhases()
	p.Add("zeta", 1)
	p.Add("alpha", 1)
	p.Add("mid", 1)
	names := p.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

// TestPhasesFoldKeepsCountsCoherent: the cross-rank fold takes the max total AND
// the max count, so Count on the folded table is the shared iteration count
// rather than a stale zero, and a phase only one rank ran keeps its count.
func TestPhasesFoldKeepsCountsCoherent(t *testing.T) {
	rank0, rank1 := NewPhases(), NewPhases()
	for i := 0; i < 4; i++ {
		rank0.Add("update_phi", 10*time.Millisecond)
		rank1.Add("update_phi", 20*time.Millisecond)
	}
	rank1.Add("barrier_only", time.Millisecond)

	merged := NewPhases()
	merged.Fold(rank0)
	merged.Fold(rank1)

	if got := merged.Total("update_phi"); got != 80*time.Millisecond {
		t.Errorf("merged total = %v, want 80ms (max across ranks)", got)
	}
	if got := merged.Count("update_phi"); got != 4 {
		t.Errorf("merged count = %d, want 4", got)
	}
	if merged.Count("barrier_only") != 1 {
		t.Errorf("phase present on one rank only lost its count")
	}
	if rank0.Total("update_phi") != 40*time.Millisecond || rank0.Count("barrier_only") != 0 {
		t.Errorf("Fold modified its argument")
	}
}

func TestPhasesSnapshotIsCopy(t *testing.T) {
	p := NewPhases()
	p.Add("a", time.Second)
	snap := p.Snapshot()
	snap["a"] = 0
	if p.Total("a") != time.Second {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestPhasesTable(t *testing.T) {
	p := NewPhases()
	p.Add("update_phi", 100*time.Millisecond)
	out := p.Table(10)
	if !strings.Contains(out, "update_phi") || !strings.Contains(out, "10.000") {
		t.Fatalf("Table output wrong:\n%s", out)
	}
	// Zero iterations must not divide by zero.
	_ = p.Table(0)
}

func TestPhasesConcurrentAdd(t *testing.T) {
	p := NewPhases()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				p.Add("x", time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if p.Count("x") != 8000 {
		t.Fatalf("Count = %d, want 8000", p.Count("x"))
	}
}
