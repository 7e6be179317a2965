package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Per-peer transport counters. The instrumented transport keeps, next to the
// aggregate transport.* counters, one counter per (kind, peer) under the
// canonical names
//
//	transport.peer.<peer>.msgs_sent
//	transport.peer.<peer>.bytes_sent
//	transport.peer.<peer>.msgs_recv
//	transport.peer.<peer>.bytes_recv
//	transport.peer.<peer>.recv_wait_ns
//
// where <peer> is the remote rank. recv_wait_ns is the total time this rank
// spent blocked in a targeted Recv waiting for that peer — the signal that
// localises a straggler: a slow peer shows up as a large recv-wait column in
// every other rank's registry, not just as a large total somewhere.
const (
	peerPrefix = "transport.peer."

	PeerMsgsSent   = "msgs_sent"
	PeerBytesSent  = "bytes_sent"
	PeerMsgsRecv   = "msgs_recv"
	PeerBytesRecv  = "bytes_recv"
	PeerRecvWaitNS = "recv_wait_ns"
)

// PeerCounterName returns the canonical per-peer counter name
// transport.peer.<peer>.<kind>.
func PeerCounterName(peer int, kind string) string {
	return peerPrefix + strconv.Itoa(peer) + "." + kind
}

// ParsePeerCounter splits a canonical per-peer counter name into the peer
// rank and the kind suffix; ok is false for any other name.
func ParsePeerCounter(name string) (peer int, kind string, ok bool) {
	rest, found := strings.CutPrefix(name, peerPrefix)
	if !found {
		return 0, "", false
	}
	num, kind, found := strings.Cut(rest, ".")
	if !found || kind == "" {
		return 0, "", false
	}
	peer, err := strconv.Atoi(num)
	if err != nil || peer < 0 {
		return 0, "", false
	}
	return peer, kind, true
}

// PhaseWaitName returns the canonical name of the per-phase transport wait
// histogram, transport.wait.<phase> — the time blocked in targeted receives
// while the engine was in that phase. See cluster.Comm.SetPhase.
func PhaseWaitName(phase string) string { return "transport.wait." + phase }

// PeerMatrix is the square per-(rank, peer) traffic/latency view of a
// distributed run: row r is what rank r's instrumented endpoint recorded
// about each peer. Row sums therefore equal rank r's aggregate transport.*
// counters, and column p is the traffic/wait the cluster directed at (or
// suffered from) peer p.
type PeerMatrix struct {
	Ranks      int         `json:"ranks"`
	MsgsSent   [][]int64   `json:"msgs_sent"`
	BytesSent  [][]int64   `json:"bytes_sent"`
	MsgsRecv   [][]int64   `json:"msgs_recv"`
	BytesRecv  [][]int64   `json:"bytes_recv"`
	RecvWaitMS [][]float64 `json:"recv_wait_ms"`
}

// NewPeerMatrix folds per-rank registry snapshots (snaps[r] belongs to rank
// r) into the square matrix. Counters naming peers outside [0, len(snaps))
// are ignored.
func NewPeerMatrix(snaps []Snapshot) *PeerMatrix {
	n := len(snaps)
	m := &PeerMatrix{
		Ranks:      n,
		MsgsSent:   makeInt64Grid(n),
		BytesSent:  makeInt64Grid(n),
		MsgsRecv:   makeInt64Grid(n),
		BytesRecv:  makeInt64Grid(n),
		RecvWaitMS: makeFloatGrid(n),
	}
	for r, snap := range snaps {
		for name, v := range snap.Counters {
			peer, kind, ok := ParsePeerCounter(name)
			if !ok || peer >= n {
				continue
			}
			switch kind {
			case PeerMsgsSent:
				m.MsgsSent[r][peer] = v
			case PeerBytesSent:
				m.BytesSent[r][peer] = v
			case PeerMsgsRecv:
				m.MsgsRecv[r][peer] = v
			case PeerBytesRecv:
				m.BytesRecv[r][peer] = v
			case PeerRecvWaitNS:
				m.RecvWaitMS[r][peer] = float64(v) / 1e6
			}
		}
	}
	return m
}

func makeInt64Grid(n int) [][]int64 {
	g := make([][]int64, n)
	for i := range g {
		g[i] = make([]int64, n)
	}
	return g
}

func makeFloatGrid(n int) [][]float64 {
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	return g
}

// ImposedWaitMS returns, per peer, the total time all other ranks spent
// blocked waiting for that peer — ImposedWaits over the recv-wait rows.
func (m *PeerMatrix) ImposedWaitMS() []float64 { return ImposedWaits(m.RecvWaitMS) }

// ImposedWaits is the per-peer straggler signal: given each rank's per-peer
// recv-wait row (recvWait[r][p] = time rank r blocked waiting for peer p),
// it returns the column sums excluding the diagonal — the wait each peer
// imposed on all the others. PeerMatrix.ImposedWaitMS applies it to a whole
// run, the distributed engine's reshard stage to one window.
func ImposedWaits(recvWait [][]float64) []float64 {
	out := make([]float64, len(recvWait))
	for r, row := range recvWait {
		for p, w := range row {
			if p != r {
				out[p] += w
			}
		}
	}
	return out
}

// PeerReport is the straggler verdict derived from a PeerMatrix (or, in
// obs.Summarize, from the per-peer wait deltas carried by iter events).
type PeerReport struct {
	// ImposedWaitMS[p] is the total recv-wait peer p imposed on all other
	// ranks.
	ImposedWaitMS []float64 `json:"imposed_wait_ms"`
	MedianMS      float64   `json:"median_ms"`
	MaxMS         float64   `json:"max_ms"`
	// Skew is MaxMS over the (floor-clamped) median; 1 means balanced.
	Skew float64 `json:"skew"`
	// Flagged lists the peers whose imposed wait clears both the skew factor
	// and the absolute floor — the localised stragglers.
	Flagged []int `json:"flagged,omitempty"`
}

// Straggler flags the peers whose imposed recv-wait is skewed against the
// cluster median.
func (m *PeerMatrix) Straggler() *PeerReport {
	return StragglerWaits(m.ImposedWaitMS())
}

// Straggler flagging thresholds (StragglerWaits): a skew factor over the
// lower median, and an absolute floor that keeps microsecond noise in fast
// balanced runs from being flagged.
const (
	StragglerSkew    = 2.0
	StragglerFloorMS = 1.0
)

// StragglerWaits applies the straggler flagging rule to a raw per-peer
// imposed-wait vector (milliseconds): peer p is flagged when
// waits[p] >= StragglerSkew·denom and waits[p] >= StragglerFloorMS, where
// denom is the floor-clamped lower median of the vector. It is the single
// rule behind PeerMatrix.Straggler, the stream-side Summarize verdict, and
// the rebalancer's per-window flagging.
//
// Degenerate cluster sizes are explicit, not accidental:
//
//   - 1 rank: the imposed-wait vector is the single peer's column sum with
//     the diagonal excluded, which is identically zero — below the floor, so
//     nothing is ever flagged. There is no one to rebalance against.
//   - 2 ranks: the lower median is the *faster* peer's imposed wait, which
//     in a healthy run is arbitrarily close to zero. The floor clamp makes
//     the rule usable here: the slow peer is compared against
//     max(fastWait, StragglerFloorMS), so a genuine straggler is flagged
//     while sub-floor noise (scheduling jitter in a 2-rank CI run) never is,
//     however large the ratio. TestStragglerTwoRanks pins both directions.
func StragglerWaits(waits []float64) *PeerReport {
	rep := &PeerReport{ImposedWaitMS: waits}
	if len(waits) == 0 {
		return rep
	}
	sorted := append([]float64(nil), waits...)
	sort.Float64s(sorted)
	rep.MedianMS = sorted[(len(sorted)-1)/2] // lower median: robust at 2 ranks
	rep.MaxMS = sorted[len(sorted)-1]
	denom := max(rep.MedianMS, StragglerFloorMS)
	rep.Skew = rep.MaxMS / denom
	for p, w := range waits {
		if w >= StragglerSkew*denom && w >= StragglerFloorMS {
			rep.Flagged = append(rep.Flagged, p)
		}
	}
	return rep
}

// String renders the report as the one-line digest ocd-train and
// ocd-analyze print.
func (r *PeerReport) String() string {
	var b strings.Builder
	b.WriteString("peer recv-wait imposed on others (ms):")
	for p, w := range r.ImposedWaitMS {
		fmt.Fprintf(&b, " rank%d %.1f", p, w)
	}
	fmt.Fprintf(&b, "; skew %.2f", r.Skew)
	if len(r.Flagged) > 0 {
		b.WriteString(" — straggler:")
		for _, p := range r.Flagged {
			fmt.Fprintf(&b, " rank %d", p)
		}
	}
	return b.String()
}
