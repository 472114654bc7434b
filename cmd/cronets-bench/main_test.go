package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestReportDigest pins the full -scale small report at two seeds. It is
// the one golden over every runner the report prints: the real-life and
// controlled prevalence figures, the longitudinal week, C4.5, placement,
// cost, high bandwidth, multihop and both MPTCP figures. A change that
// moves any printed digit changes the digest; if the change is meant,
// regenerate with `go run ./cmd/cronets-bench -scale small -seed N |
// sha256sum`.
func TestReportDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole small-scale suite twice")
	}
	want := map[int64]string{
		42: "29216debe9409b84a79c1915c44719eb3a6a2a39a32925f186c9caa8ffb4ab0d",
		7:  "ba567656ffddc11f2e013702176adc7753b2f9bdcb82b87fa5f2ee352544ecaf",
	}
	for _, seed := range []int64{42, 7} {
		out := captureStdout(t, func() error { return run(seed, "small", "all") })
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want[seed] {
			t.Errorf("seed %d: report digest %s, want %s; report:\n%s", seed, got, want[seed], out)
		}
	}
}

// captureStdout runs fn with os.Stdout pointed at a temp file and returns
// what fn printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
