// Remote user scenario: the paper's second motivating use case. A remote
// worker tunnels traffic through a cloud overlay node to reach a private
// service. The example exercises the real tunnel stack end to end —
// GRE-like encapsulation over a stream, and the overlay node's IP
// masquerade, which lets the service reply through the node without any
// tunnel configuration of its own — and then compares throughput on a
// netem-impaired "hotel Wi-Fi" direct path against the cloud detour.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/relay"
	"cronets/internal/tunnel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := tunnelDemo(); err != nil {
		return err
	}
	return throughputDemo()
}

// tunnelDemo sends a request packet from the remote user through an
// overlay node into a packet switch and receives the reply through the
// node's NAT.
func tunnelDemo() error {
	fmt.Println("1. Tunnel + NAT through the overlay node")

	var (
		userAddr    = netip.MustParseAddr("203.0.113.10") // remote user
		overlayAddr = netip.MustParseAddr("198.51.100.1") // cloud VM
		serverAddr  = netip.MustParseAddr("192.0.2.20")   // corporate app
	)

	// "The Internet" around the overlay node, with the corporate server
	// attached.
	sw := tunnel.NewSwitch()
	serverPort := sw.Attach(serverAddr)
	overlayPort := sw.Attach(overlayAddr)

	// The tunnel between the user and the overlay node is an in-process
	// pipe here; in a deployment it is a TCP/UDP connection to the VM.
	userSide, nodeSide := net.Pipe()
	node := tunnel.NewOverlayNode(nodeSide, overlayAddr, overlayPort)
	if err := node.Start(); err != nil {
		return err
	}
	defer node.Close()

	user := tunnel.NewEndpoint(userSide)
	defer user.Close()

	// The corporate server answers whatever lands on it.
	go func() {
		for {
			pkt, err := serverPort.RecvPacket()
			if err != nil {
				return
			}
			reply := tunnel.Packet{
				Proto:   pkt.Proto,
				Src:     pkt.Dst,
				Dst:     pkt.Src,
				Payload: append([]byte("re: "), pkt.Payload...),
			}
			_ = serverPort.SendPacket(reply)
		}
	}()

	request := tunnel.Packet{
		Proto:   tunnel.ProtoTCP,
		Src:     netip.AddrPortFrom(userAddr, 51000),
		Dst:     netip.AddrPortFrom(serverAddr, 443),
		Payload: []byte("GET /payroll"),
	}
	if err := user.Send(request, flowtrace.Context{}); err != nil {
		return err
	}
	reply, _, err := user.Recv()
	if err != nil {
		return err
	}
	fmt.Printf("   user sent    %q to %v\n", request.Payload, request.Dst)
	fmt.Printf("   server saw source %v (the overlay node's NAT address)\n", node.NAT().External())
	fmt.Printf("   user received %q from %v\n\n", reply.Payload, reply.Src)
	return nil
}

// throughputDemo compares the impaired direct path against the overlay
// detour using real sockets.
func throughputDemo() error {
	fmt.Println("2. Hotel Wi-Fi direct path vs cloud detour")

	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server := measure.NewServer(serverLn)
	go server.Serve() //nolint:errcheck
	defer server.Close()

	// Direct: long, thin, jittery.
	directLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	direct := netem.New(directLn, server.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: 90 * time.Millisecond, Jitter: 20 * time.Millisecond, RateMbps: 4},
		Down: netem.Impairment{Latency: 90 * time.Millisecond, Jitter: 20 * time.Millisecond, RateMbps: 4},
	})
	go direct.Serve() //nolint:errcheck
	defer direct.Close()

	// Overlay: short hop to the cloud node, clean leg onward.
	legLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	leg := netem.New(legLn, server.Addr().String(), netem.Config{
		Up:   netem.Impairment{Latency: 15 * time.Millisecond, RateMbps: 40},
		Down: netem.Impairment{Latency: 15 * time.Millisecond, RateMbps: 40},
	})
	go leg.Serve() //nolint:errcheck
	defer leg.Close()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cloud := relay.New(cloudLn, relay.Config{Target: leg.Addr().String()})
	go cloud.Serve() //nolint:errcheck
	defer cloud.Close()

	report := func(name, addr string) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		rtt, err := measure.ProbeRTTContext(context.Background(), conn, 5, nil)
		if err != nil {
			return err
		}
		conn2, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn2.Close()
		thr, err := measure.Throughput(context.Background(), conn2, 2*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("   %-16s %6.1f Mbps, rtt avg %v\n", name, thr.Mbps, rtt.Avg.Round(time.Millisecond))
		return nil
	}
	if err := report("direct:", direct.Addr().String()); err != nil {
		return err
	}
	if err := report("via overlay:", cloud.Addr().String()); err != nil {
		return err
	}
	return nil
}
