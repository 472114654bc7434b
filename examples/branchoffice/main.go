// Branch office interconnect over real sockets: the paper's first
// motivating scenario. Office A reaches office B's file server either over
// the "default Internet path" (a netem-shaped thin, slow link) or through
// a cloud relay reached over a much cleaner shaped path — and finally over
// a multipath channel using both paths at once, the MPTCP-proxy deployment
// of Section VI-A.
//
// Everything runs on localhost; netem proxies stand in for the wide-area
// conditions.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"cronets/internal/measure"
	"cronets/internal/multipath"
	"cronets/internal/netem"
	"cronets/internal/relay"
)

// Path conditions: the default route is thin and slow; the cloud detour is
// clean and fast (the overlay premise of the paper).
var (
	directImp = netem.Impairment{Latency: 40 * time.Millisecond, RateMbps: 8}
	cloudImp  = netem.Impairment{Latency: 10 * time.Millisecond, RateMbps: 60}
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// shapedPath starts a netem proxy to target with the impairment in both
// directions, returning its dialable address and a closer.
func shapedPath(target string, imp netem.Impairment) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	p := netem.New(ln, target, netem.Config{Up: imp, Down: imp})
	go p.Serve() //nolint:errcheck // shut down via Close
	return p.Addr().String(), p, nil
}

// cloudRelayPath starts a relay ("the cloud VM") whose onward leg to
// target is shaped with the cloud impairment.
func cloudRelayPath(target string) (string, func(), error) {
	legAddr, legCloser, err := shapedPath(target, cloudImp)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = legCloser.Close()
		return "", nil, err
	}
	r := relay.New(ln, relay.Config{Target: legAddr})
	go r.Serve() //nolint:errcheck
	closer := func() {
		_ = r.Close()
		_ = legCloser.Close()
	}
	return r.Addr().String(), closer, nil
}

func run() error {
	// Office B's measurement server (the remote file server).
	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server := measure.NewServer(serverLn)
	go server.Serve() //nolint:errcheck
	defer server.Close()
	serverAddr := server.Addr().String()

	directAddr, directCloser, err := shapedPath(serverAddr, directImp)
	if err != nil {
		return err
	}
	defer directCloser.Close()

	cloudAddr, cloudCloser, err := cloudRelayPath(serverAddr)
	if err != nil {
		return err
	}
	defer cloudCloser()

	const runFor = 2 * time.Second
	fmt.Println("Branch office A -> branch office B file transfer")

	directMbps, err := timedUpload(directAddr, runFor)
	if err != nil {
		return err
	}
	fmt.Printf("  direct path:      %6.1f Mbps\n", directMbps)

	cloudMbps, err := timedUpload(cloudAddr, runFor)
	if err != nil {
		return err
	}
	fmt.Printf("  via cloud relay:  %6.1f Mbps  (%.1fx)\n", cloudMbps, cloudMbps/directMbps)

	mpMbps, err := multipathTransfer(runFor)
	if err != nil {
		return err
	}
	fmt.Printf("  multipath (both): %6.1f Mbps  (%.1fx)\n", mpMbps, mpMbps/directMbps)
	fmt.Println("\nThe relay path wins; the multipath channel uses both without choosing.")
	return nil
}

// timedUpload measures sink-mode upload throughput to an address.
func timedUpload(addr string, runFor time.Duration) (float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	res, err := measure.Throughput(context.Background(), conn, runFor)
	if err != nil {
		return 0, err
	}
	return res.Mbps, nil
}

// multipathTransfer stripes one stream across both shaped paths: office B
// runs the receiving proxy; each subflow traverses its own netem-shaped
// route (one direct, one through the cloud relay).
func multipathTransfer(runFor time.Duration) (float64, error) {
	// Office B's multipath rendezvous.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	rendezvous := ln.Addr().String()

	// Shaped routes toward the rendezvous.
	directAddr, directCloser, err := shapedPath(rendezvous, directImp)
	if err != nil {
		return 0, err
	}
	defer directCloser.Close()
	cloudAddr, cloudCloser, err := cloudRelayPath(rendezvous)
	if err != nil {
		return 0, err
	}
	defer cloudCloser()

	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	var senderConns, receiverConns []net.Conn
	for _, addr := range []string{directAddr, cloudAddr} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, err
		}
		senderConns = append(senderConns, c)
		receiverConns = append(receiverConns, <-accepted)
	}

	sender, err := multipath.NewSender(senderConns, multipath.Config{})
	if err != nil {
		return 0, err
	}
	receiver, err := multipath.NewReceiver(receiverConns, multipath.Config{})
	if err != nil {
		return 0, err
	}
	defer receiver.Close()

	done := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, receiver)
		done <- n
	}()

	// No measure server sits behind the channel, so time the upload here.
	buf := make([]byte, 64<<10)
	start := time.Now()
	for time.Since(start) < runFor {
		if _, err := sender.Write(buf); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := sender.Close(); err != nil {
		return 0, err
	}
	received := <-done
	// Goodput at the receiver over the full run.
	return float64(received) * 8 / elapsed.Seconds() / 1e6, nil
}
