package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phases is the cumulative per-phase timing table behind the paper's
// per-stage breakdowns (Figure 1's phase curves and Table III): wall-clock
// total and interval count per phase name. Every Observer owns one; the
// distributed engine keeps one per rank and folds them at the end of a run.
type Phases struct {
	mu sync.Mutex
	m  map[string]phase
}

type phase struct {
	total time.Duration
	count int
}

// NewPhases creates an empty accumulator.
func NewPhases() *Phases { return &Phases{m: map[string]phase{}} }

// Add folds a measured duration into a phase.
func (p *Phases) Add(name string, d time.Duration) {
	p.mu.Lock()
	ph := p.m[name]
	p.m[name] = phase{ph.total + d, ph.count + 1}
	p.mu.Unlock()
}

// Total returns the cumulative time of a phase.
func (p *Phases) Total(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[name].total
}

// Count returns how many intervals were recorded for a phase.
func (p *Phases) Count(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[name].count
}

// Names returns the recorded phase names, sorted.
func (p *Phases) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.m))
	for n := range p.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the totals map.
func (p *Phases) Snapshot() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.m))
	for k, v := range p.m {
		out[k] = v.total
	}
	return out
}

// Fold merges another rank's table into this one: totals take the max (the
// slowest rank bounds a barrier-separated phase) and counts take the max
// interval count (ranks run the same iteration count, so this is the shared
// count, and a phase only one rank runs keeps its count). other must be a
// different table: both locks are held for the walk.
func (p *Phases) Fold(other *Phases) {
	other.mu.Lock()
	defer other.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, o := range other.m {
		ph := p.m[k]
		p.m[k] = phase{max(ph.total, o.total), max(ph.count, o.count)}
	}
}

// Table renders a per-iteration breakdown like the paper's Table III:
// phase name and milliseconds per iteration, given the iteration count.
func (p *Phases) Table(iterations int) string {
	if iterations < 1 {
		iterations = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s\n", "stage", "ms/iter")
	for _, name := range p.Names() {
		ms := float64(p.Total(name).Microseconds()) / 1000 / float64(iterations)
		fmt.Fprintf(&b, "%-28s %12.3f\n", name, ms)
	}
	return b.String()
}
