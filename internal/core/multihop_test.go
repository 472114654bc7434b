package core

import (
	"math/rand"
	"testing"
	"time"

	"cronets/internal/tcpsim"
)

func TestMeasureTwoHop(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	spec := tcpsim.Spec{Duration: 10 * time.Second}
	m, err := cn.MeasureTwoHop(rng, in.Servers[0], in.Clients[0],
		in.DCOrder[0], in.DCOrder[1], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Split.ThroughputMbps <= 0 || m.Plain.ThroughputMbps <= 0 {
		t.Errorf("two-hop throughputs: %+v", m)
	}
	if len(m.DCs) != 2 {
		t.Errorf("DCs = %v", m.DCs)
	}
	if m.Split.DC != in.DCOrder[0]+"+"+in.DCOrder[1] {
		t.Errorf("split DC label = %q", m.Split.DC)
	}
}

func TestMeasureTwoHopValidation(t *testing.T) {
	in, cn := testNet(t)
	rng := rand.New(rand.NewSource(1))
	spec := tcpsim.Spec{Duration: time.Second}
	if _, err := cn.MeasureTwoHop(rng, in.Servers[0], in.Clients[0],
		in.DCOrder[0], in.DCOrder[0], spec, 0); err == nil {
		t.Error("expected error for duplicate DCs")
	}
	if _, err := cn.MeasureTwoHop(rng, in.Servers[0], in.Clients[0],
		"Gotham", in.DCOrder[0], spec, 0); err == nil {
		t.Error("expected error for unknown first DC")
	}
	if _, err := cn.MeasureTwoHop(rng, in.Servers[0], in.Clients[0],
		in.DCOrder[0], "Gotham", spec, 0); err == nil {
		t.Error("expected error for unknown second DC")
	}
}

// TestTwoHopSplitUsuallyComparable: the two-hop split should be in the same
// throughput regime as the one-hop split via either of its DCs (it cannot
// do better than its worst segment, and the extra relay should not
// devastate it either).
func TestTwoHopSplitComparable(t *testing.T) {
	in, cn := testNet(t)
	spec := tcpsim.Spec{Duration: 15 * time.Second}
	src, dst := in.Servers[0], in.Clients[1]
	one, err := cn.MeasureOverlay(rand.New(rand.NewSource(3)), src, dst, in.DCOrder[0], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	two, err := cn.MeasureTwoHop(rand.New(rand.NewSource(3)), src, dst,
		in.DCOrder[0], in.DCOrder[1], spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := two.Split.ThroughputMbps / one.Split.ThroughputMbps
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("two-hop split %v wildly off one-hop %v",
			two.Split.ThroughputMbps, one.Split.ThroughputMbps)
	}
}

// twoHopGoldenDigest pins MeasureTwoHop's results for the runs of
// TestMeasureTwoHopGolden; like goldenDigest, only a deliberate model change
// may re-record it.
const twoHopGoldenDigest = "eca478ec3ed046a5"

// TestMeasureTwoHopGolden pins MeasureTwoHop's results (the split chain,
// then the plain tunnel) bit for bit on fixed (server, client, DC pair,
// seed, start time) runs.
func TestMeasureTwoHopGolden(t *testing.T) {
	in, cn := testNet(t)
	runs := []struct {
		server, client int
		dc1, dc2       int
		seed           int64
		at             time.Duration
	}{
		{0, 0, 0, 1, 1, 0},
		{1, 3, 2, 0, 2, 0},
		{2, 6, 3, 4, 3, 7 * time.Hour},
	}
	var vs []uint64
	for _, r := range runs {
		m, err := cn.MeasureTwoHop(rand.New(rand.NewSource(r.seed)), in.Servers[r.server], in.Clients[r.client],
			in.DCOrder[r.dc1], in.DCOrder[r.dc2], tcpsim.Spec{Duration: 10 * time.Second}, r.at)
		if err != nil {
			t.Fatal(err)
		}
		vs = appendMeasurement(vs, m.Split)
		vs = appendMeasurement(vs, m.Plain)
	}
	if got := digest(vs); got != twoHopGoldenDigest {
		t.Errorf("two-hop digest = %s, want %s", got, twoHopGoldenDigest)
	}
}
