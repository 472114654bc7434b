package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// wireNames is every event type with the name /debug/events serves for
// it, written out independently of the package's own list.
var wireNames = []struct {
	t    EventType
	name string
}{
	{EventConnect, "connect"},
	{EventDial, "dial"},
	{EventSubflowUp, "subflow-up"},
	{EventSubflowDown, "subflow-down"},
	{EventRetransmit, "retransmit"},
	{EventACLReject, "acl-reject"},
	{EventIdleClose, "idle-close"},
	{EventFaultInjected, "fault-injected"},
	{EventSubflowRejoin, "subflow-rejoin"},
	{EventDialRetry, "dial-retry"},
	{EventProbe, "probe"},
	{EventRankChange, "rank-change"},
	{EventPathSwitch, "path-switch"},
	{EventFallback, "fallback"},
	{EventImpairmentChange, "impairment-change"},
	{EventFlowTrace, "flow-trace"},
	{EventPoolWarm, "pool-warm"},
	{EventPoolDrain, "pool-drain"},
	{EventChainCandidates, "chain-candidates"},
	{EventChainDial, "chain-dial"},
	{EventBurst, "burst"},
}

// TestEventsJSONGolden pins the /debug/events bytes for one record of
// every event type (timestamps masked).
func TestEventsJSONGolden(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("test")
	var want strings.Builder
	want.WriteString("[\n")
	for i, w := range wireNames {
		s.Event(w.t, "d")
		if i > 0 {
			want.WriteString(",\n")
		}
		fmt.Fprintf(&want, "  {\n    \"time\": \"T\",\n    \"component\": \"test\",\n    \"type\": %q,\n    \"detail\": \"d\"\n  }", w.name)
	}
	want.WriteString("\n]\n")

	rec := httptest.NewRecorder()
	r.EventsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	got := regexp.MustCompile(`"time": "[^"]+"`).ReplaceAllString(rec.Body.String(), `"time": "T"`)
	if got != want.String() {
		t.Fatalf("/debug/events =\n%s\nwant\n%s", got, want.String())
	}
}
