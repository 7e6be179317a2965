package main

import (
	"sync"
	"time"
)

// An open loop sends on a schedule whatever the system does: request i of a
// sender is due at start + i·period, and its latency counts from that due
// time, so the wait a stall imposes on the requests queued behind it is
// measured instead of hidden. How late the generator itself sent each
// request (send time minus due time) is reported separately.

// loopStats collects one sender's samples; merge with add.
type loopStats struct {
	latencyUS []float64 // completion − due time, every attempted operation
	lateUS    []float64 // send − due time: how late the generator ran
	ok        []bool    // per operation: answered and verified
}

func (a *loopStats) attempted() int { return len(a.ok) }

// failed counts the operations that errored, were refused or failed
// verification.
func (a *loopStats) failed() int {
	n := 0
	for _, ok := range a.ok {
		if !ok {
			n++
		}
	}
	return n
}

func (a *loopStats) add(b *loopStats) {
	a.latencyUS = append(a.latencyUS, b.latencyUS...)
	a.lateUS = append(a.lateUS, b.lateUS...)
	a.ok = append(a.ok, b.ok...)
}

// withinLimit is the share of ATTEMPTED operations that succeeded within
// limit of their due time; a failed operation misses every limit.
func (a *loopStats) withinLimit(limit time.Duration) float64 {
	if a.attempted() == 0 {
		return 0
	}
	n := 0
	for i, l := range a.latencyUS {
		if a.ok[i] && l <= us(limit) {
			n++
		}
	}
	return float64(n) / float64(a.attempted())
}

// clock is the loop's time source, replaceable in tests.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop runs one sender: operation i is due at start + offset + i·period;
// the sender sleeps until the due time if it is early and sends at once if it
// is late (a slow reply delays the sends behind it, and their latency says
// so). It returns when stop is closed. op reports whether operation i was
// answered and verified.
func openLoop(clk clock, start time.Time, offset, period time.Duration,
	stop <-chan struct{}, op func(i int) bool) (st loopStats) {
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*period)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		select {
		case <-stop:
			return st
		default:
		}
		sent := clk.Now()
		ok := op(i)
		done := clk.Now()
		st.latencyUS = append(st.latencyUS, us(done.Sub(due)))
		st.lateUS = append(st.lateUS, us(sent.Sub(due)))
		st.ok = append(st.ok, ok)
	}
}

// runSenders drives n senders at a combined rate (operations per second),
// their schedules interleaved evenly, until stop closes. ops[i] is sender
// i's operation.
func runSenders(rate float64, stop <-chan struct{}, ops []func(i int) bool) loopStats {
	n := len(ops)
	period := time.Duration(float64(n) / rate * float64(time.Second))
	start := time.Now()
	stats := make([]loopStats, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			offset := time.Duration(s) * period / time.Duration(n)
			stats[s] = openLoop(wallClock{}, start, offset, period, stop, ops[s])
		}(s)
	}
	wg.Wait()
	var total loopStats
	for s := range stats {
		total.add(&stats[s])
	}
	return total
}
