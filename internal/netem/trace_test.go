package netem

import (
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cronets/internal/flowtrace"
)

// TestTraceJoinMatchesRelay: netem opens a netem.shape span only for a
// preamble the relay accepts with a sampled trace context, because it
// reads the line with the relay's parser. The relay serves the extra-token
// line untraced and refuses the next three.
func TestTraceJoinMatchesRelay(t *testing.T) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1, 2, 3}, Span: 42, Sampled: true}
	tok := " TP=" + tc.EncodeText()
	echo := echoServer(t)
	tests := []struct {
		name     string
		preamble string
		joins    bool
	}{
		{"traced", "CONNECT h:1" + tok + "\r\n", true},
		{"untraced", "CONNECT h:1\n", false},
		{"extra-token", "CONNECT h:1 x" + tok + "\n", false},
		{"no-port", "CONNECT nohostport" + tok + "\n", false},
		{"empty-host", "CONNECT :1" + tok + "\n", false},
		{"overlong", "CONNECT " + strings.Repeat("a", 600) + ":1" + tok + "\n", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tracer := flowtrace.New(flowtrace.Config{Node: "netem"})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p := New(ln, echo.Addr().String(), Config{Tracer: tracer})
			go p.Serve() //nolint:errcheck // closed below
			conn, err := net.Dial("tcp", p.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.WriteString(conn, tt.preamble); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(conn, make([]byte, len(tt.preamble))); err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
			_ = p.Close() // waits for the handler, which ends its span

			var shaped []*flowtrace.Span
			for _, s := range tracer.Snapshot() {
				if s.Name == "netem.shape" {
					shaped = append(shaped, s)
				}
			}
			if !tt.joins {
				if len(shaped) != 0 {
					t.Fatalf("opened %d netem.shape spans, want none", len(shaped))
				}
				return
			}
			if len(shaped) != 1 {
				t.Fatalf("opened %d netem.shape spans, want 1", len(shaped))
			}
			if s := shaped[0]; s.Trace != tc.Trace || s.Parent != tc.Span || s.Detail != "h:1" {
				t.Errorf("span = trace %v parent %d detail %q, want trace %v parent %d detail %q",
					s.Trace, s.Parent, s.Detail, tc.Trace, tc.Span, "h:1")
			}
		})
	}
}

// TestShapeSpanRetainsTarget: a netem.shape span keeps a copy of the
// CONNECT target, not a substring of the whole line: the tracer's ring
// holds each span long after its connection has closed, and the line
// carries the 48-character TP= token besides the target.
func TestShapeSpanRetainsTarget(t *testing.T) {
	const spans, maxPerSpan = 1000, 32
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1, 2, 3}, Span: 42, Sampled: true}
	first := []byte("CONNECT 127.0.0.1:9100 TP=" + tc.EncodeText() + "\n")
	p := &Proxy{cfg: Config{Tracer: flowtrace.New(flowtrace.Config{Node: "netem"})}}
	shaped := make([]*flowtrace.Span, spans)
	for i := range shaped {
		if shaped[i] = p.joinTrace(first); shaped[i].Detail != "127.0.0.1:9100" {
			t.Fatalf("span detail = %q, want the target", shaped[i].Detail)
		}
	}
	held := liveHeap()
	for _, s := range shaped {
		s.SetDetail("")
	}
	perSpan := (int64(held) - int64(liveHeap())) / spans
	runtime.KeepAlive(shaped) // only the details may go between the readings
	if perSpan > maxPerSpan {
		t.Fatalf("a netem.shape span's detail retains %d B, want at most %d B", perSpan, maxPerSpan)
	}
	t.Logf("a netem.shape span's detail retains %d B", perSpan)
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
