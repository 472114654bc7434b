// Path selection with MPTCP: the paper's Section VI answer to "which
// overlay node should I use?" — none in particular. Open one subflow on
// the direct path and one through every overlay node; the coupled
// congestion controller funnels traffic onto the best path automatically,
// while the uncoupled variant aggregates them all up to the NIC.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"cronets"
	"cronets/internal/tcpsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo := cronets.DefaultTopology(11)
	topo.ClientStubs = 8
	topo.ServerStubs = 2
	topo.CloudDCCities = []string{
		"WashingtonDC", "SanJose", "Dallas", "Amsterdam", "Tokyo", "London", "Singapore",
	}
	in, err := cronets.GenerateInternet(topo)
	if err != nil {
		return err
	}
	cn := cronets.New(in, cronets.DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	spec := cronets.Spec{Duration: time.Minute}

	// Two data centers act as the MPTCP proxies; the rest are overlay
	// nodes, giving the proxies 1 direct + 5 overlay paths.
	src := in.DCs["Singapore"]
	dst := in.DCs["WashingtonDC"]
	var overlays []string
	for _, dc := range cn.DCCities() {
		if dc != "Singapore" && dc != "WashingtonDC" {
			overlays = append(overlays, dc)
		}
	}

	pr, err := cn.MeasurePair(rng, src, dst, overlays, spec, 0)
	if err != nil {
		return err
	}
	fmt.Printf("Singapore -> WashingtonDC over %d paths\n\n", 1+len(overlays))
	fmt.Printf("  single-path TCP, direct:  %6.1f Mbps\n", pr.Direct.ThroughputMbps)
	best, _ := pr.BestOverlay(cronets.Overlay)
	fmt.Printf("  best overlay (probed):    %6.1f Mbps  via %s\n", best.ThroughputMbps, best.DC)

	coupled, err := cn.MeasureMPTCP(rng, src, dst, overlays,
		cronets.OLIA, tcpsim.Reno, spec, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  MPTCP (OLIA, coupled):    %6.1f Mbps  — no probing needed\n", coupled.TotalMbps)

	uncoupled, err := cn.MeasureMPTCP(rng, src, dst, overlays,
		cronets.Uncoupled, tcpsim.Cubic, spec, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  MPTCP (uncoupled CUBIC):  %6.1f Mbps  — sums the paths up to the NIC\n\n", uncoupled.TotalMbps)

	fmt.Println("  per-subflow (coupled):  ", formatMbps(coupled.SubflowMbps))
	fmt.Println("  per-subflow (uncoupled):", formatMbps(uncoupled.SubflowMbps))
	return nil
}

func formatMbps(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f", x)
	}
	return out + " Mbps"
}
