package pathmon

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPathsHandlerJSON(t *testing.T) {
	a := MakeRoute("relay-a:9000")
	b := MakeRoute("relay-b:9000")
	m, _ := synthMonitor(t, Config{
		Fleet:   []string{a.First(), b.First()},
		Alpha:   1,
		MaxHops: 2,
	})
	now := time.Unix(1000, 0)
	feedRound(m, now, map[Route]time.Duration{
		Direct: 10 * time.Millisecond,
		a:      30 * time.Millisecond,
		b:      -1, // down: its score is +Inf and must render as null
	}, map[Route]float64{a: 42})
	m.now = func() time.Time { return now }

	rec := httptest.NewRecorder()
	m.View(ObjectiveLatency).PathsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/paths", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var rows []PathRow
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	byPath := make(map[string]PathRow, len(rows))
	for _, r := range rows {
		byPath[r.Path] = r
	}
	direct, ok := byPath["direct"]
	if !ok {
		t.Fatalf("no direct row in %s", rec.Body.String())
	}
	if direct.Kind != "direct" || direct.State != "best" || direct.ScoreMs == nil {
		t.Errorf("direct row = %+v, want kind=direct state=best with a score", direct)
	}
	if direct.LastProbeAgeMs == nil {
		t.Error("direct row has no last-probe age after a successful round")
	}
	down, ok := byPath[b.String()]
	if !ok {
		t.Fatalf("no row for %s in %s", b, rec.Body.String())
	}
	if down.State != "down" || down.ScoreMs != nil {
		t.Errorf("down row = %+v, want state=down with null score", down)
	}
	relayRow, ok := byPath[a.String()]
	if !ok || relayRow.Kind != "relay" || len(relayRow.Hops) != 1 {
		t.Errorf("relay row = %+v (present=%v), want kind=relay with 1 hop", relayRow, ok)
	}
	if relayRow.Mbps != 42 || relayRow.LastBurstAgeMs == nil {
		t.Errorf("relay row = %+v, want mbps=42 with a last-burst age", relayRow)
	}
	if direct.LastBurstAgeMs != nil {
		t.Errorf("direct row advertises a burst age without any burst: %+v", direct)
	}
}
