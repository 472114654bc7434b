package pathmon

// The /debug/paths exposition: a view's ranked table as JSON, one row per
// candidate path (direct, each relay, each live chain candidate),
// score-ordered best-first under the view's objective — what an operator
// checks to answer "why is traffic where it is?".

import (
	"encoding/json"
	"math"
	"net/http"
	"time"
)

// PathRow is one row of the /debug/paths JSON document.
type PathRow struct {
	// Path is the display name ("direct", "via a", "via a>b").
	Path string `json:"path"`
	// Kind is "direct", "relay", or "chain".
	Kind string `json:"kind"`
	// Hops lists the relay endpoints in order (absent for direct).
	Hops []string `json:"hops,omitempty"`
	// SRTTMs and RTTVarMs are the smoothed RTT estimate and its
	// deviation, in milliseconds.
	SRTTMs   float64 `json:"srtt_ms"`
	RTTVarMs float64 `json:"rttvar_ms"`
	// ScoreMs is the routing metric in milliseconds; null while the
	// path is down (the in-memory score is +Inf, which JSON cannot
	// carry).
	ScoreMs *float64 `json:"score_ms"`
	// Mbps is the smoothed throughput estimate after staleness decay
	// (absent if no burst has completed, or the estimate fully aged out).
	Mbps float64 `json:"mbps,omitempty"`
	// LastBurstAgeMs is how long ago the throughput estimate last
	// absorbed a completed burst; null if never — with Mbps it answers
	// "is this bandwidth number current?".
	LastBurstAgeMs *float64 `json:"last_burst_age_ms"`
	// Samples and Fails mirror the estimate's history: successful
	// rounds absorbed and the current consecutive-failure streak.
	Samples int `json:"samples"`
	Fails   int `json:"fails"`
	// State is "best" (carrying new flows), "up", or "down".
	State string `json:"state"`
	// LastProbeAgeMs is how long ago the path last answered a probe;
	// null before the first success.
	LastProbeAgeMs *float64 `json:"last_probe_age_ms"`
}

// PathsHandler serves the view's ranked path table as JSON, best-first.
// Mount it behind obs.GETOnly next to the other observability endpoints.
func (v *View) PathsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		now := time.Now()
		ranked := v.Ranked()
		rows := make([]PathRow, 0, len(ranked))
		for _, st := range ranked {
			row := PathRow{
				Path:     st.Route.String(),
				Kind:     st.Route.Kind(),
				Hops:     st.Route.Hops(),
				SRTTMs:   ms(st.SRTT),
				RTTVarMs: ms(st.RTTVar),
				Mbps:     st.Mbps,
				Samples:  st.Samples,
				Fails:    st.Fails,
				State:    pathStateName(st),
			}
			if !math.IsInf(st.Score, 1) {
				score := st.Score * 1e3
				row.ScoreMs = &score
			}
			if !st.LastSample.IsZero() {
				age := ms(now.Sub(st.LastSample))
				row.LastProbeAgeMs = &age
			}
			if !st.LastBurst.IsZero() {
				age := ms(now.Sub(st.LastBurst))
				row.LastBurstAgeMs = &age
			}
			rows = append(rows, row)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rows)
	})
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pathStateName collapses a row's status flags into one state word.
func pathStateName(st RouteStatus) string {
	switch {
	case st.Best:
		return "best"
	case st.Down:
		return "down"
	default:
		return "up"
	}
}
