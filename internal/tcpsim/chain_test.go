package tcpsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestChainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RunSplitChain(rng, nil, DefaultSplitConfig(), Spec{Duration: time.Second}); err == nil {
		t.Error("expected error for no segments")
	}
	seg := StaticPath(metrics(50, 0, 100))
	if _, err := RunSplitChain(rng, []PathFunc{seg}, DefaultSplitConfig(), Spec{}); err != ErrSpec {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

func TestChainSingleSegmentEqualsRun(t *testing.T) {
	seg := StaticPath(metrics(80, 2e-4, 100))
	spec := Spec{Duration: 20 * time.Second}
	chain, err := RunSplitChain(rand.New(rand.NewSource(4)), []PathFunc{seg}, DefaultSplitConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(rand.New(rand.NewSource(4)), seg, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if chain.ThroughputMbps != direct.ThroughputMbps {
		t.Errorf("single-segment chain %v != Run %v", chain.ThroughputMbps, direct.ThroughputMbps)
	}
}

// TestChainThreeSegmentsBeatsEndToEnd: splitting a long lossy path twice
// should beat the single end-to-end loop (each loop sees a third of the
// RTT), the paper's Section VII-B hypothesis.
func TestChainThreeSegmentsBeatsEndToEnd(t *testing.T) {
	seg := StaticPath(metrics(100, 2e-4, 1000))
	e2e := StaticPath(metrics(300, 1-(1-2e-4)*(1-2e-4)*(1-2e-4), 1000))
	spec := Spec{Duration: 30 * time.Second}
	chain, err := RunSplitChain(rand.New(rand.NewSource(6)), []PathFunc{seg, seg, seg}, DefaultSplitConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(rand.New(rand.NewSource(6)), e2e, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if chain.ThroughputMbps < direct.ThroughputMbps*1.5 {
		t.Errorf("3-split chain %v vs end-to-end %v: expected a clear win",
			chain.ThroughputMbps, direct.ThroughputMbps)
	}
}

func TestChainBoundedByWorstSegment(t *testing.T) {
	good := StaticPath(metrics(20, 0, 1000))
	bad := StaticPath(metrics(100, 5e-3, 1000))
	spec := Spec{Duration: 30 * time.Second}
	chain, err := RunSplitChain(rand.New(rand.NewSource(7)), []PathFunc{good, bad, good}, DefaultSplitConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	badAlone, err := Run(rand.New(rand.NewSource(7)), bad, DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if chain.ThroughputMbps > badAlone.ThroughputMbps*1.5 {
		t.Errorf("chain %v exceeds its worst segment %v", chain.ThroughputMbps, badAlone.ThroughputMbps)
	}
}

func TestChainTransferCompletes(t *testing.T) {
	seg := StaticPath(metrics(40, 1e-4, 100))
	res, err := RunSplitChain(rand.New(rand.NewSource(8)), []PathFunc{seg, seg, seg},
		DefaultSplitConfig(), Spec{TransferBytes: 3 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes < 3<<20 {
		t.Errorf("delivered %d bytes", res.Bytes)
	}
}
