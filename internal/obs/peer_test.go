package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestPeerCounterNameRoundTrip(t *testing.T) {
	for _, kind := range []string{PeerMsgsSent, PeerBytesSent, PeerMsgsRecv, PeerBytesRecv, PeerRecvWaitNS} {
		name := PeerCounterName(3, kind)
		peer, gotKind, ok := ParsePeerCounter(name)
		if !ok || peer != 3 || gotKind != kind {
			t.Fatalf("ParsePeerCounter(%q) = (%d, %q, %v)", name, peer, gotKind, ok)
		}
	}
	for _, bad := range []string{
		"transport.msgs_sent", "transport.peer.", "transport.peer.x.msgs_sent",
		"transport.peer.3", "transport.peer.3.", "transport.peer.-1.msgs_sent",
		"dkv.requests",
	} {
		if _, _, ok := ParsePeerCounter(bad); ok {
			t.Fatalf("ParsePeerCounter accepted %q", bad)
		}
	}
}

// TestPeerMatrixFromSnapshots builds the matrix from hand-made per-rank
// snapshots and checks placement, out-of-range filtering, and the
// imposed-wait column sums.
func TestPeerMatrixFromSnapshots(t *testing.T) {
	snaps := []Snapshot{
		{Counters: map[string]int64{
			PeerCounterName(1, PeerMsgsSent):   5,
			PeerCounterName(1, PeerBytesSent):  500,
			PeerCounterName(1, PeerMsgsRecv):   4,
			PeerCounterName(1, PeerBytesRecv):  400,
			PeerCounterName(1, PeerRecvWaitNS): 2_000_000, // 2ms waiting on rank 1
			PeerCounterName(9, PeerMsgsSent):   99,        // outside the cluster: ignored
			CtrNetMsgsSent:                     5,         // aggregates pass through untouched
		}},
		{Counters: map[string]int64{
			PeerCounterName(0, PeerMsgsSent):   4,
			PeerCounterName(0, PeerBytesSent):  400,
			PeerCounterName(0, PeerMsgsRecv):   5,
			PeerCounterName(0, PeerBytesRecv):  500,
			PeerCounterName(0, PeerRecvWaitNS): 8_000_000, // 8ms waiting on rank 0
		}},
	}
	m := NewPeerMatrix(snaps)
	if m.Ranks != 2 {
		t.Fatalf("Ranks = %d, want 2", m.Ranks)
	}
	if m.MsgsSent[0][1] != 5 || m.MsgsSent[1][0] != 4 {
		t.Fatalf("MsgsSent = %v", m.MsgsSent)
	}
	if m.BytesRecv[0][1] != 400 || m.BytesRecv[1][0] != 500 {
		t.Fatalf("BytesRecv = %v", m.BytesRecv)
	}
	if m.RecvWaitMS[0][1] != 2 || m.RecvWaitMS[1][0] != 8 {
		t.Fatalf("RecvWaitMS = %v", m.RecvWaitMS)
	}
	if want := []float64{8, 2}; !reflect.DeepEqual(m.ImposedWaitMS(), want) {
		t.Fatalf("ImposedWaitMS = %v, want %v", m.ImposedWaitMS(), want)
	}
}

func TestStragglerReport(t *testing.T) {
	cases := []struct {
		name    string
		waits   []float64
		flagged []int
	}{
		{"balanced", []float64{10, 11, 9, 10}, nil},
		{"one slow", []float64{10, 10, 50, 10}, []int{2}},
		// 2-rank case: the lower median is the fast peer; the floor stands in.
		{"two ranks", []float64{0.01, 30}, []int{1}},
		// Microsecond noise stays below the absolute floor: nothing flagged.
		{"all fast", []float64{0.001, 0.04}, nil},
		{"empty", nil, nil},
	}
	for _, c := range cases {
		rep := StragglerWaits(c.waits)
		if !reflect.DeepEqual(rep.Flagged, c.flagged) {
			t.Errorf("%s: Flagged = %v, want %v (report %+v)", c.name, rep.Flagged, c.flagged, rep)
		}
	}
	rep := StragglerWaits([]float64{10, 10, 50, 10})
	if rep.MaxMS != 50 || rep.MedianMS != 10 || rep.Skew != 5 {
		t.Fatalf("report stats = %+v, want max 50 / median 10 / skew 5", rep)
	}
	s := rep.String()
	for _, want := range []string{"rank2 50.0", "skew 5.00", "straggler: rank 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string %q missing %q", s, want)
		}
	}
}

// TestStragglerTwoRanks pins the degenerate cluster sizes the rule's doc
// comment promises: a single rank can never be flagged (its imposed wait is
// identically zero), and at two ranks the floor-clamped single-sample
// denominator flags a genuine straggler while never flagging sub-floor
// noise, however extreme the ratio between the two peers.
func TestStragglerTwoRanks(t *testing.T) {
	cases := []struct {
		name    string
		waits   []float64
		flagged []int
	}{
		// 1 rank: the recv-wait column sum excluding the diagonal is zero.
		{"one rank never flags", []float64{0}, nil},
		// 2 ranks, genuine straggler: wait clears skew·max(fast, floor).
		{"genuine straggler flagged", []float64{0.2, 25}, []int{1}},
		{"straggler in rank 0", []float64{40, 0.5}, []int{0}},
		// Exactly at the threshold (skew 2 × floor 1ms = 2ms) still flags.
		{"threshold boundary", []float64{0, 2}, []int{1}},
		// Sub-floor noise: a 40× ratio between microsecond waits must NOT
		// flag — this is the healthy 2-rank CI run.
		{"sub-floor noise not flagged", []float64{0.002, 0.08}, nil},
		{"just under the floor", []float64{0, 0.999}, nil},
		// Both peers slow and balanced: skew against the (clamped) fast peer
		// stays under the factor, so neither is flagged.
		{"balanced slow pair", []float64{30, 45}, nil},
		{"both zero", []float64{0, 0}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := StragglerWaits(c.waits)
			if !reflect.DeepEqual(rep.Flagged, c.flagged) {
				t.Fatalf("Flagged = %v, want %v (report %+v)", rep.Flagged, c.flagged, rep)
			}
		})
	}

	// The same verdicts must come out of the PeerMatrix path: build a 2-rank
	// matrix where rank 0 waits 25ms on rank 1.
	snaps := []Snapshot{
		{Counters: map[string]int64{PeerCounterName(1, PeerRecvWaitNS): 25_000_000}},
		{Counters: map[string]int64{PeerCounterName(0, PeerRecvWaitNS): 200_000}},
	}
	rep := NewPeerMatrix(snaps).Straggler()
	if !reflect.DeepEqual(rep.Flagged, []int{1}) {
		t.Fatalf("matrix straggler Flagged = %v, want [1]", rep.Flagged)
	}
	// And a 1-rank matrix never flags.
	rep = NewPeerMatrix(snaps[:1]).Straggler()
	if rep.Flagged != nil {
		t.Fatalf("1-rank matrix flagged %v", rep.Flagged)
	}
}
