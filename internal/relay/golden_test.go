package relay

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"testing"

	"cronets/internal/flowtrace"
)

// writeLog records each Write call made on a connection.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// TestConnectLineGolden pins the CONNECT request bytes Connect sends,
// untraced and traced, and that each goes out in a single Write.
func TestConnectLineGolden(t *testing.T) {
	tc := flowtrace.Context{Span: 0x2a, Sampled: true}
	for i := range tc.Trace {
		tc.Trace[i] = byte(i + 1)
	}
	tests := []struct {
		name string
		ctx  context.Context
		want string
	}{
		{"untraced", context.Background(), "CONNECT 192.0.2.1:443\n"},
		{"traced", flowtrace.NewGoContext(context.Background(), tc),
			"CONNECT 192.0.2.1:443 TP=0102030405060708090a0b0c0d0e0f10800000000000002a\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			go func() {
				if _, err := bufio.NewReader(b).ReadString('\n'); err == nil {
					_, _ = io.WriteString(b, "OK\n")
				}
			}()
			conn := &writeLog{Conn: a}
			c, err := Connect(tt.ctx, conn, "192.0.2.1:443")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			conn.mu.Lock()
			defer conn.mu.Unlock()
			if len(conn.writes) != 1 || conn.writes[0] != tt.want {
				t.Fatalf("writes = %q, want one write %q", conn.writes, tt.want)
			}
		})
	}
}
