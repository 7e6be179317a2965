// Package simnet models the cluster interconnect: an FDR-InfiniBand-like
// link with base latency, line-rate bandwidth, and the per-request overhead
// that distinguishes the DKV store from raw RDMA. The model is what stands
// in for the paper's physical network (see DESIGN.md substitutions); it
// drives Figure 5 directly and supplies the communication terms of the
// perfmodel cost model behind Figures 1-4 and Table III.
package simnet

import "fmt"

// Model describes one link of the interconnect.
type Model struct {
	// LatencySec is the one-way base latency of an operation (seconds).
	LatencySec float64
	// BandwidthBytesPerSec is the sustained line rate.
	BandwidthBytesPerSec float64
	// RequestOverheadSec is the extra per-request software cost a DKV
	// operation pays over a raw RDMA read (request parsing, batch
	// scatter/gather). Zero for the qperf-style raw baseline.
	RequestOverheadSec float64
	// ScatterPenalty models the paper's observation that very large DKV
	// reads fall slightly below qperf because values are spread over a
	// larger memory area: the effective bandwidth for payloads above
	// ScatterThresholdBytes is multiplied by ScatterFactor (≤ 1).
	ScatterThresholdBytes float64
	ScatterFactor         float64
}

// FDRInfiniBand returns the raw-link model matching the DAS5 fabric: ~1.5 µs
// latency and ~6.8 GB/s sustained bandwidth (56 Gb/s signalling minus
// encoding overhead). This is the "qperf" curve of Figure 5.
func FDRInfiniBand() Model {
	return Model{
		LatencySec:           1.5e-6,
		BandwidthBytesPerSec: 6.8e9,
	}
}

// DKVStore returns the model of the paper's key-value store on the same
// fabric: the same wire, plus per-request software overhead and the
// large-payload memory-scatter penalty.
func DKVStore() Model {
	m := FDRInfiniBand()
	m.RequestOverheadSec = 0.3e-6
	m.ScatterThresholdBytes = 512 << 10
	m.ScatterFactor = 0.82
	return m
}

// Validate reports the first invalid field.
func (m Model) Validate() error {
	switch {
	case m.LatencySec < 0:
		return fmt.Errorf("simnet: negative latency")
	case m.BandwidthBytesPerSec <= 0:
		return fmt.Errorf("simnet: non-positive bandwidth")
	case m.RequestOverheadSec < 0:
		return fmt.Errorf("simnet: negative request overhead")
	case m.ScatterFactor < 0 || m.ScatterFactor > 1:
		return fmt.Errorf("simnet: scatter factor %v out of [0,1]", m.ScatterFactor)
	}
	return nil
}

// TransferTime returns the modeled seconds to move one payload of the given
// size as a single operation.
func (m Model) TransferTime(payloadBytes int) float64 {
	bw := m.BandwidthBytesPerSec
	if m.ScatterThresholdBytes > 0 && float64(payloadBytes) >= m.ScatterThresholdBytes && m.ScatterFactor > 0 {
		bw *= m.ScatterFactor
	}
	return m.LatencySec + m.RequestOverheadSec + float64(payloadBytes)/bw
}

// Bandwidth returns the effective bandwidth (bytes/sec) achieved when
// streaming back-to-back operations of the given payload size — the y-axis
// of Figure 5.
func (m Model) Bandwidth(payloadBytes int) float64 {
	t := m.TransferTime(payloadBytes)
	if t <= 0 {
		return 0
	}
	return float64(payloadBytes) / t
}
