package relay

import (
	"net"
	"strings"
	"testing"

	"cronets/internal/flowtrace"
)

// FuzzParseConnectTrace feeds arbitrary request lines to the CONNECT
// parser, the first code a relay runs on bytes from the network. The
// seed corpus is in testdata/fuzz/FuzzParseConnectTrace. Properties:
//   - the parser never panics;
//   - an accepted target splits into a non-empty host and port;
//   - the trace context is non-zero only when flowtrace.DecodeText
//     accepts the line's TP= token;
//   - an accepted target sent with TP=<c.EncodeText()> comes back as the
//     same target and c (zero when the wire form cannot carry c, i.e. a
//     zero trace ID).
func FuzzParseConnectTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string, trace []byte, span uint64, sampled bool) {
		target, tc, err := ParseConnectTrace(line)
		if err != nil {
			if target != "" || !tc.IsZero() {
				t.Fatalf("rejected %q but returned (%q, %+v)", line, target, tc)
			}
			return
		}
		host, port, serr := net.SplitHostPort(target)
		if serr != nil || host == "" || port == "" {
			t.Fatalf("accepted %q with target %q: host %q port %q err %v", line, target, host, port, serr)
		}
		if tc != (flowtrace.Context{}) {
			// A context can only come from a line ending in TP=<token>.
			trimmed := strings.TrimSpace(line)
			tok := trimmed[max(0, len(trimmed)-flowtrace.TextSize):]
			decoded, ok := flowtrace.DecodeText(tok)
			if !ok || decoded != tc || !strings.HasSuffix(trimmed[:len(trimmed)-len(tok)], tracePrefix) {
				t.Fatalf("accepted %q with context %+v, but its token %q decodes to (%+v, %v)", line, tc, tok, decoded, ok)
			}
		}

		var c flowtrace.Context
		copy(c.Trace[:], trace)
		c.Span = span &^ (1 << 63) // the wire's span word keeps bit 63 for the sampled flag
		c.Sampled = sampled
		want := c
		if c.IsZero() {
			want = flowtrace.Context{}
		}
		rt := "CONNECT " + target + " " + tracePrefix + c.EncodeText() + "\n"
		gotTarget, gotCtx, err := ParseConnectTrace(rt)
		if err != nil || gotTarget != target || gotCtx != want {
			t.Fatalf("round trip of %q = (%q, %+v, %v), want (%q, %+v)", rt, gotTarget, gotCtx, err, target, want)
		}
	})
}
