// Package cronets is the public facade of the CRONets reproduction: build
// cloud-routed overlay networks over a generated Internet-scale topology,
// measure the paper's four path configurations (direct, tunnel overlay,
// split-TCP overlay, discrete bound), and select paths automatically with
// MPTCP-style coupled congestion control.
//
// A minimal session:
//
//	net, err := cronets.GenerateInternet(cronets.DefaultTopology(42))
//	cn := cronets.New(net, cronets.DefaultConfig())
//	rng := rand.New(rand.NewSource(1))
//	pr, err := cn.MeasurePair(rng, net.Servers[0], net.Clients[0],
//	    cn.DCCities(), cronets.Spec{Duration: 30 * time.Second}, 0)
//
// The experiment runners that regenerate every table and figure of the
// paper live in internal/experiments and are surfaced by
// cmd/cronets-bench; the real-socket relay/tunnel/multipath stack lives in
// internal/{relay,tunnel,multipath,netem,measure} and is exercised by the
// examples.
package cronets

import (
	"math/rand"
	"time"

	"cronets/internal/core"
	"cronets/internal/tcpsim"
	"cronets/internal/topology"
)

// Re-exported types: the facade aliases the core and topology types so
// downstream code can use the root package alone for simulation work.
type (
	// CRONet is a cloud-routed overlay network over a generated Internet.
	CRONet = core.CRONet
	// Config holds measurement parameters.
	Config = core.Config
	// PathKind identifies direct / overlay / split-overlay / discrete.
	PathKind = core.PathKind
	// Measurement is one path measurement (throughput, retx rate, RTT).
	Measurement = core.Measurement
	// PairResult is a full (src, dst) measurement across all paths.
	PairResult = core.PairResult
	// Internet is a generated topology.
	Internet = topology.Internet
	// Topology parameterizes Internet generation.
	Topology = topology.Config
	// Host is an endpoint (client, server, or cloud DC).
	Host = topology.Host
	// Spec bounds a measurement by duration and/or bytes.
	Spec = tcpsim.Spec
	// Coupling selects MPTCP congestion coupling (LIA, OLIA, Uncoupled).
	Coupling = tcpsim.Coupling
)

// Path kinds (see PathKind).
const (
	Direct          = core.Direct
	Overlay         = core.Overlay
	SplitOverlay    = core.SplitOverlay
	DiscreteOverlay = core.DiscreteOverlay
)

// MPTCP couplings.
const (
	LIA       = tcpsim.LIA
	OLIA      = tcpsim.OLIA
	Uncoupled = tcpsim.Uncoupled
)

// New builds a CRONet over a generated Internet.
func New(in *Internet, cfg Config) *CRONet { return core.New(in, cfg) }

// DefaultConfig returns the measurement parameters used by the paper-scale
// experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultTopology returns the paper-scale topology configuration (110
// client stubs, 10 server stubs, 5 cloud data centers).
func DefaultTopology(seed int64) Topology { return topology.DefaultConfig(seed) }

// GenerateInternet builds an Internet from the configuration.
func GenerateInternet(cfg Topology) (*Internet, error) { return topology.Generate(cfg) }

// MeasureMPTCP runs one MPTCP connection from src to dst across the direct
// path plus one subflow per overlay DC. See CRONet.MeasureMPTCP for the
// full-control variant; this helper uses the paper's defaults (OLIA
// coupling, Reno subflow decrease, 100 Mbps NIC).
func MeasureMPTCP(cn *CRONet, rng *rand.Rand, src, dst Host, dcs []string,
	spec Spec, at time.Duration) (tcpsim.MPTCPResult, error) {
	return cn.MeasureMPTCP(rng, src, dst, dcs, OLIA, tcpsim.Reno, spec, at)
}
