package tcpsim

import (
	"math/rand"
	"time"
)

// SplitConfig parameterizes a split-TCP (proxy) run: the overlay node
// terminates the sender's TCP connection and opens a second connection to
// the receiver, relaying payload through a finite buffer. Each half runs its
// own congestion-control loop over roughly half the end-to-end RTT, which is
// the mechanism behind the paper's split-overlay gains (Section II,
// Mathis model: halving RTT doubles achievable rate).
type SplitConfig struct {
	// Flow is the per-segment TCP configuration.
	Flow Config
	// RelayBufferBytes is the proxy's relay buffer (flow control between
	// the two halves). Zero selects the 4 MiB default.
	RelayBufferBytes int64
}

// DefaultSplitConfig returns a split configuration with standard flow
// parameters and a 4 MiB relay buffer.
func DefaultSplitConfig() SplitConfig {
	return SplitConfig{Flow: DefaultConfig(), RelayBufferBytes: 4 << 20}
}

// RunSplit simulates a split-TCP transfer: sender -> relay over first,
// relay -> receiver over second. It is the two-segment form of
// RunSplitChain.
func RunSplit(rng *rand.Rand, first, second PathFunc, cfg SplitConfig, spec Spec) (Result, error) {
	return RunSplitChain(rng, []PathFunc{first, second}, cfg, spec)
}

// rtoFor is the retransmission timeout after a round of rtt: twice the
// RTT, but at least minRTO.
func rtoFor(rtt time.Duration) time.Duration {
	rto := rtt * 2
	if rto < minRTO {
		rto = minRTO
	}
	return rto
}
