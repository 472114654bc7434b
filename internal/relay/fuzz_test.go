package relay

import (
	"net"
	"strings"
	"testing"

	"cronets/internal/flowtrace"
)

// FuzzParseConnectTrace feeds arbitrary request lines to the CONNECT
// parser, the first code a relay runs on bytes from the network (and the
// code netem reads passing handshakes with). The seed corpus is in
// testdata/fuzz/FuzzParseConnectTrace. Properties:
//   - the parser never panics;
//   - a line longer than the relay's CONNECT reader is rejected;
//   - an accepted target splits into a non-empty host and port;
//   - the trace context is non-zero only when flowtrace.DecodeText
//     accepts the line's TP= token;
//   - appendConnectLine(nil, target, c) for an accepted target parses
//     back to the same target and c (zero when c is unsampled or has a
//     zero trace ID, which the encoder leaves off the wire), or is
//     refused when the encoded line outgrows the reader. A target the
//     parser split off before a later space can end in other whitespace
//     ("CONNECT 0:\n 0" gives "0:\n"); with no token after it the line's
//     own trimming takes that whitespace, so such targets are
//     round-tripped only with a token.
func FuzzParseConnectTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string, trace []byte, span uint64, sampled bool) {
		target, tc, err := ParseConnectTrace(line)
		if err != nil {
			if target != "" || !tc.IsZero() {
				t.Fatalf("rejected %q but returned (%q, %+v)", line, target, tc)
			}
			return
		}
		if len(line) > connectLineBytes {
			t.Fatalf("accepted a %d-byte line", len(line))
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
		want := flowtrace.Context{}
		if c.Sampled && !c.IsZero() {
			want = c
		}
		if want.IsZero() && strings.TrimSpace(target) != target {
			return
		}
		rt := string(appendConnectLine(nil, target, c))
		gotTarget, gotCtx, err := ParseConnectTrace(rt)
		if len(rt) > connectLineBytes {
			if err == nil {
				t.Fatalf("accepted the %d-byte encoding %q", len(rt), rt)
			}
			return
		}
		if err != nil || gotTarget != target || gotCtx != want {
			t.Fatalf("round trip of %q = (%q, %+v, %v), want (%q, %+v)", rt, gotTarget, gotCtx, err, target, want)
		}
	})
}
