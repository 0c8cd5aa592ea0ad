package server

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"

	"repro/internal/quality"
)

// Ground-truth ingestion and the live quality status surface.

// feedQuality streams one successful forecast into the quality engine:
// the self-join of the request's own history against earlier pending
// forecasts, the forecast itself for future resolution, and the input
// statistics for the drift/mutation detectors. Each engine call runs
// inline under the engine's lock, in well under a microsecond.
func (s *Server) feedQuality(req *ForecastRequest, forecast []float64) {
	var t int64
	if req.T != nil {
		t = *req.T
		// Self-join: the history window carries fresh actuals for the
		// target indicator; timestamps overlapping previously forecast
		// times resolve those forecasts.
		if idx := s.inputs.Target; idx < len(req.Indicators) {
			tgt := req.Indicators[idx]
			if len(tgt) > 0 {
				s.engine.Observe(req.Entity, t-int64(len(tgt))+1, tgt)
				if s.adapt != nil {
					// The same actuals resolve mirrored shadow forecasts.
					s.adapt.ObserveActuals(req.Entity, t-int64(len(tgt))+1, tgt)
				}
			}
		}
		s.engine.RecordForecast(req.Entity, t, forecast)
	} else {
		// Without a sample time there is nothing to join on; a synthetic
		// request ordinal still drives the input detectors.
		t = s.reqSeq.Add(1)
	}
	s.engine.ObserveInput(req.Entity, t, s.inputs.Summarize(req.Indicators))
}

// ObserveRequest is the /v1/observe request body: ground truth for the
// target indicator, Values[i] measured at sample time T0+i.
type ObserveRequest struct {
	Entity string    `json:"entity,omitempty"`
	T0     int64     `json:"t0"`
	Values []float64 `json:"values"`
}

// ObserveResponse acknowledges accepted ground truth.
type ObserveResponse struct {
	Status   string `json:"status"`
	Accepted int    `json:"accepted"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	body, err := readSized(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		s.writeReadError(w, err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON: %v", err))
		return
	}
	if len(req.Values) == 0 {
		s.writeError(w, http.StatusBadRequest, "values must be non-empty")
		return
	}
	s.engine.Observe(req.Entity, req.T0, req.Values)
	if s.adapt != nil {
		s.adapt.ObserveActuals(req.Entity, req.T0, req.Values)
	}
	// 202 for compatibility: the engine resolves these actuals inline,
	// before this response is written.
	s.writeJSON(w, http.StatusAccepted, ObserveResponse{Status: "accepted", Accepted: len(req.Values)})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "not ready")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ready"}`)
}

func (s *Server) handleQualityStatus(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Status()
	if r.URL.Query().Get("format") == "html" ||
		(r.URL.Query().Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html")) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeQualityHTML(w, &st)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// writeQualityHTML renders the status report as a minimal, dependency-
// free HTML page for humans behind the same endpoint the JSON lives on.
func writeQualityHTML(w http.ResponseWriter, st *quality.StatusReport) {
	esc := html.EscapeString
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>forecast quality</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #999;padding:4px 10px;text-align:right}th{background:#eee}
td:first-child,th:first-child{text-align:left}
.ok{color:#070}.warn{color:#b70}.alarm,.breach{color:#b00;font-weight:bold}
</style></head><body><h1>forecast quality</h1>`)
	fmt.Fprintf(w, "<p>t=%d · pending=%d · resolved=%d · expired=%d</p>",
		st.Time, st.Pending, st.Resolved, st.Expired)

	fmt.Fprintf(w, `<h2>drift</h2><table><tr><th>signal</th><th>state</th><th>level</th><th>baseline</th></tr>`)
	for _, row := range []struct {
		name string
		d    quality.DriftStatus
	}{{"error", st.ErrorDrift}, {"input", st.InputDrift}} {
		fmt.Fprintf(w, `<tr><td>%s</td><td class="%s">%s</td><td>%.4g</td><td>%.4g ± %.4g</td></tr>`,
			row.name, esc(row.d.State), esc(row.d.State), row.d.Level, row.d.BaselineMean, row.d.BaselineStd)
	}
	fmt.Fprint(w, "</table>")

	if len(st.SLO) > 0 {
		fmt.Fprint(w, `<h2>slo</h2><table><tr><th>rule</th><th>state</th><th>value</th><th>pairs</th></tr>`)
		for _, r := range st.SLO {
			fmt.Fprintf(w, `<tr><td>%s</td><td class="%s">%s</td><td>%.4g</td><td>%d</td></tr>`,
				esc(r.Rule), esc(r.State), esc(r.State), r.Value, r.Count)
		}
		fmt.Fprint(w, "</table>")
	}

	stepTable := func(steps []quality.StepStats, all quality.StepStats) {
		fmt.Fprint(w, `<table><tr><th>step</th><th>count</th><th>mae</th><th>mse</th><th>bias</th><th>over</th><th>under</th><th>p90|e|</th></tr>`)
		rows := append([]quality.StepStats{all}, steps...)
		for i, s := range rows {
			label := fmt.Sprintf("%d", s.Step)
			if i == 0 {
				label = "all"
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%.4g</td><td>%.4g</td><td>%+.4g</td><td>%d</td><td>%d</td><td>%.4g</td></tr>",
				label, s.Count, s.MAE, s.MSE, s.Bias, s.Over, s.Under, s.P90AbsErr)
		}
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "<h2>accuracy (all entities)</h2>")
	stepTable(st.Steps, st.Aggregate)

	for _, e := range st.Entities {
		fmt.Fprintf(w, "<h2>entity %s</h2><p>last_t=%d · pending=%d", esc(e.Entity), e.LastT, e.Pending)
		if len(e.InputMutations) > 0 {
			fmt.Fprintf(w, " · input mutations at %v", e.InputMutations)
		}
		if len(e.ResidualMutations) > 0 {
			fmt.Fprintf(w, " · residual mutations at %v", e.ResidualMutations)
		}
		fmt.Fprint(w, "</p>")
		stepTable(e.Steps, e.All)
	}
	fmt.Fprint(w, "</body></html>")
}
