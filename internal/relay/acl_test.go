package relay

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

func TestACLNilAllowsAll(t *testing.T) {
	var a *ACL
	if !a.Allow("8.8.8.8:53") {
		t.Error("nil ACL should allow everything")
	}
}

func TestNewACLValidation(t *testing.T) {
	if _, err := NewACL(nil, nil); err == nil {
		t.Error("empty ACL should be rejected")
	}
	if _, err := NewACL([]string{"not-a-cidr"}, nil); err == nil {
		t.Error("bad CIDR should be rejected")
	}
}

func TestACLPrefixAndPort(t *testing.T) {
	a, err := NewACL([]string{"10.0.0.0/8", "192.0.2.0/24"}, []uint16{443, 9100})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		target string
		want   bool
	}{
		{"10.1.2.3:443", true},
		{"192.0.2.7:9100", true},
		{"10.1.2.3:80", false},     // port not allowed
		{"203.0.113.5:443", false}, // prefix not allowed
		{"example.com:443", false}, // hostname cannot be verified
		{"10.1.2.3", false},        // no port
		{"[2001:db8::1]:443", false},
	}
	for _, tt := range tests {
		if got := a.Allow(tt.target); got != tt.want {
			t.Errorf("Allow(%q) = %v, want %v", tt.target, got, tt.want)
		}
	}
}

func TestACLPortsOnly(t *testing.T) {
	a, err := NewACL(nil, []uint16{22})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Allow("198.51.100.9:22") {
		t.Error("port-only ACL should allow any address on 22")
	}
	if !a.Allow("corp.example:22") {
		t.Error("port-only ACL has no prefix rules; hostnames are fine")
	}
	if a.Allow("198.51.100.9:23") {
		t.Error("port 23 should be denied")
	}
}

// TestRelayEnforcesACL: a CONNECT to a forbidden target is refused before
// any upstream dial.
func TestRelayEnforcesACL(t *testing.T) {
	echo := echoServer(t)
	acl, err := NewACL([]string{"203.0.113.0/24"}, nil) // does not cover loopback
	if err != nil {
		t.Fatal(err)
	}
	r := startRelay(t, Config{ACL: acl})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err == nil {
		t.Fatal("forbidden target should be refused")
	}
	if !strings.Contains(err.Error(), "forbidden") {
		t.Errorf("err = %v, want forbidden", err)
	}
	waitFor(t, func() bool { return r.Stats().Rejected.Load() > 0 })
	if r.Stats().Rejected.Load() == 0 {
		t.Error("rejected counter not incremented")
	}
	if r.Stats().Errors.Load() != 0 {
		t.Errorf("ACL rejection should not count as an error, got Errors=%d",
			r.Stats().Errors.Load())
	}
}

// TestRejectedCounterSeparateFromErrors: an ACL refusal increments only
// Rejected, while a failed upstream dial increments only Errors — open-relay
// probes and upstream trouble stay distinguishable.
func TestRejectedCounterSeparateFromErrors(t *testing.T) {
	echo := echoServer(t)
	acl, err := NewACL([]string{"127.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := startRelay(t, Config{ACL: acl})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Forbidden target: rejected, not an error.
	if _, err := dialVia(ctx, r.Addr().String(), "203.0.113.9:80"); err == nil {
		t.Fatal("forbidden target should be refused")
	}
	// Allowed target that refuses the connection: an error, not a reject.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()
	if _, err := dialVia(ctx, r.Addr().String(), deadAddr); err == nil {
		t.Fatal("dial to closed port should fail")
	}
	// A working connection for contrast.
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	waitFor(t, func() bool {
		return r.Stats().Rejected.Load() == 1 && r.Stats().Errors.Load() == 1
	})
	if got := r.Stats().Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if got := r.Stats().Errors.Load(); got != 1 {
		t.Errorf("Errors = %d, want 1", got)
	}
}

func TestRelayACLAllowsPermittedTarget(t *testing.T) {
	echo := echoServer(t)
	acl, err := NewACL([]string{"127.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := startRelay(t, Config{ACL: acl})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "permitted"); got != "permitted" {
		t.Errorf("echo = %q", got)
	}
}
