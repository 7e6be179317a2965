package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	if err := FDRInfiniBand().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DKVStore().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []Model{
		{LatencySec: -1, BandwidthBytesPerSec: 1},
		{LatencySec: 0, BandwidthBytesPerSec: 0},
		{LatencySec: 0, BandwidthBytesPerSec: 1, RequestOverheadSec: -1},
		{LatencySec: 0, BandwidthBytesPerSec: 1, ScatterFactor: 2},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	m := FDRInfiniBand()
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		return m.TransferTime(a) <= m.TransferTime(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthApproachesLineRate(t *testing.T) {
	m := FDRInfiniBand()
	small := m.Bandwidth(64)
	big := m.Bandwidth(32 << 20)
	if small >= big {
		t.Fatalf("bandwidth not increasing: %v vs %v", small, big)
	}
	if big < 0.99*m.BandwidthBytesPerSec {
		t.Fatalf("asymptotic bandwidth %v below line rate %v", big, m.BandwidthBytesPerSec)
	}
	if small > 0.1*m.BandwidthBytesPerSec {
		t.Fatalf("64B transfers should be latency-bound, got %v", small)
	}
}

func TestLatencyFloor(t *testing.T) {
	m := FDRInfiniBand()
	if got := m.TransferTime(0); math.Abs(got-m.LatencySec) > 1e-15 {
		t.Fatalf("zero-byte transfer = %v, want latency %v", got, m.LatencySec)
	}
}

func TestScatterPenaltyAppliesAboveThreshold(t *testing.T) {
	m := DKVStore()
	below := int(m.ScatterThresholdBytes) - 1
	above := int(m.ScatterThresholdBytes)
	// Effective bandwidth drops discontinuously at the threshold.
	bwBelow := float64(below) / (m.TransferTime(below) - m.LatencySec - m.RequestOverheadSec)
	bwAbove := float64(above) / (m.TransferTime(above) - m.LatencySec - m.RequestOverheadSec)
	if bwAbove >= bwBelow {
		t.Fatalf("scatter penalty missing: %v vs %v", bwAbove, bwBelow)
	}
	if ratio := bwAbove / bwBelow; math.Abs(ratio-m.ScatterFactor) > 0.01 {
		t.Fatalf("penalty ratio %v, want %v", ratio, m.ScatterFactor)
	}
}

func TestDKVAlwaysSlowerThanRaw(t *testing.T) {
	raw, dkv := FDRInfiniBand(), DKVStore()
	for p := 64; p <= 1<<21; p *= 4 {
		if dkv.TransferTime(p) <= raw.TransferTime(p) {
			t.Fatalf("payload %d: DKV op not slower than raw", p)
		}
	}
}
