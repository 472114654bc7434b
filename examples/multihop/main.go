// Multi-hop relay chaining: the paper's §VII-B two-hop configuration on
// localhost. A destination sits behind three candidate routes — the
// direct Internet path, two single cloud relays, and the two-hop chain
// through both relays — where every single-hop route crosses a congested
// leg the chain avoids: relay A has clean client access but a congested
// egress toward the destination, relay B has a clean egress but a
// congested access link, and the A->B backbone is clean. Pathmon probes
// and ranks all of them (MaxHops: 2 enumerates the chains), and the
// demo dials the winner through chain.Dial, printing the ranked table.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"cronets/internal/chain"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/pathmon"
	"cronets/internal/relay"
)

var congested = netem.Impairment{Latency: 40 * time.Millisecond}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// shaped starts a netem proxy to target, impaired in both directions.
func shaped(target string, imp netem.Impairment) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	p := netem.New(ln, target, netem.Config{Up: imp, Down: imp})
	go p.Serve() //nolint:errcheck // shut down via Close
	return p.Addr().String(), p, nil
}

// rewriteDialer is a relay's emulated routing table: chosen targets are
// rewritten onto shaped legs before dialing.
type rewriteDialer struct {
	d       net.Dialer
	rewrite map[string]string
}

func (r *rewriteDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if to, ok := r.rewrite[address]; ok {
		address = to
	}
	return r.d.DialContext(ctx, network, address)
}

func run() error {
	// The destination: a measure server answering echo probes.
	destLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dest := measure.NewServer(destLn)
	go dest.Serve() //nolint:errcheck
	defer dest.Close()
	destAddr := destLn.Addr().String()

	// The direct path crosses congested transit.
	directAddr, directLink, err := shaped(destAddr, congested)
	if err != nil {
		return err
	}
	defer directLink.Close()

	// Relay B: clean egress to the destination, congested client access.
	relayBLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	relayB := relay.New(relayBLn, relay.Config{})
	go relayB.Serve() //nolint:errcheck
	defer relayB.Close()
	bAccess, bLink, err := shaped(relayBLn.Addr().String(), congested)
	if err != nil {
		return err
	}
	defer bLink.Close()

	// Relay A: clean client access, congested egress to the destination,
	// clean backbone to relay B (the dialer is A's routing table).
	aEgress, aLink, err := shaped(destAddr, congested)
	if err != nil {
		return err
	}
	defer aLink.Close()
	relayALn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	relayA := relay.New(relayALn, relay.Config{
		Dialer: &rewriteDialer{rewrite: map[string]string{
			destAddr: aEgress,                  // A -> dest: congested
			bAccess:  relayBLn.Addr().String(), // A -> B: clean backbone
		}},
	})
	go relayA.Serve() //nolint:errcheck
	defer relayA.Close()

	// Pathmon with MaxHops 2: the fleet's top single-hop relays are
	// paired into two-hop chain candidates, probed and ranked in the
	// same table.
	mon, err := pathmon.New(pathmon.Config{
		Dest:         destAddr,
		DirectAddr:   directAddr,
		Fleet:        []string{relayALn.Addr().String(), bAccess},
		Interval:     250 * time.Millisecond,
		ProbeTimeout: 2 * time.Second, // the congested legs cost ~80 ms RTT per exchange
		ProbeCount:   2,
		Alpha:        0.5,
		SwitchRounds: 2,
		MaxHops:      2,
	})
	if err != nil {
		return err
	}
	defer mon.Close()
	mon.Start()

	fmt.Println("probing direct, 1-hop, and 2-hop chain paths...")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if best, ok := mon.Best(); ok && best.IsChain() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no chain committed within %v", 10*time.Second)
		}
		time.Sleep(100 * time.Millisecond)
	}

	fmt.Println("\nranked path table:")
	for _, st := range mon.Ranked() {
		marker := " "
		if st.Best {
			marker = "*"
		}
		fmt.Printf("  %s %-7s %-40s srtt %6.1f ms\n",
			marker, st.Route.Kind(), st.Route, float64(st.SRTT)/float64(time.Millisecond))
	}

	// Dial the committed chain and measure through it.
	best, _ := mon.Best()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := chain.Dial(ctx, best.Hops(), destAddr, chain.Options{})
	if err != nil {
		return err
	}
	defer conn.Close()
	stats, err := measure.ProbeRTTContext(ctx, conn, 4, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s: avg RTT %.1f ms\n", best, float64(stats.Avg)/float64(time.Millisecond))
	fmt.Println("every single-hop path crosses a 40 ms congested leg; the chain avoids them all.")
	return nil
}
