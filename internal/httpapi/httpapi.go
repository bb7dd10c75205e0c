// Package httpapi is the HTTP front end shared by relserve and relfleet:
// model loading and evaluator construction, the /predict wire types and
// handler, the shared /stats and /estimates blocks, and the one table
// that maps errors to HTTP statuses. The commands keep only their own
// flags, routes and lifecycle.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
)

// PredictRequest is the wire form of one /predict or /predict/batch
// call. Scope isolates tenants on relfleet: degraded answers never cross
// scopes, and the (scope, service, parameter-region) triple is the
// routing key.
type PredictRequest struct {
	Service   string      `json:"service,omitempty"`
	Scope     string      `json:"scope,omitempty"`
	Params    []float64   `json:"params,omitempty"`
	ParamSets [][]float64 `json:"param_sets,omitempty"`
	Priority  string      `json:"priority,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// PredictResponse is the wire form of one answer. Kind is always set;
// Error is present exactly when the answer is degraded.
type PredictResponse struct {
	Kind        string   `json:"kind"`
	Pfail       float64  `json:"pfail"`
	Reliability float64  `json:"reliability"`
	Lo          *float64 `json:"lo,omitempty"`
	Hi          *float64 `json:"hi,omitempty"`
	AgeMS       int64    `json:"age_ms,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// ToResponse renders an answer in its wire form.
func ToResponse(a socruntime.Answer) PredictResponse {
	r := PredictResponse{
		Kind:        a.Kind.String(),
		Pfail:       a.Pfail,
		Reliability: a.Reliability(),
	}
	if a.Kind == socruntime.Bounded {
		lo, hi := a.Lo, a.Hi
		r.Lo, r.Hi = &lo, &hi
	}
	if a.Age > 0 {
		r.AgeMS = a.Age.Milliseconds()
	}
	if a.Err != nil {
		r.Error = a.Err.Error()
	}
	return r
}

// parsePriority maps the wire priority name to its admission class; the
// empty name is interactive.
func parsePriority(s string) (server.Priority, error) {
	switch s {
	case "", "interactive":
		return server.Interactive, nil
	case "batch":
		return server.Batch, nil
	case "best-effort":
		return server.BestEffort, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (want interactive, batch, or best-effort)", s)
	}
}

// Status is the front ends' one error → HTTP status table. Shedding
// (server.ErrOverloaded, which ErrDraining wraps) and a stopped replica
// (cluster.ErrStopped) are 503; the store sentinels are 404 (not
// found), 409 (version conflict), 400 (bad name) and 422 (corrupt
// record); anything else is 500.
func Status(err error) int {
	switch {
	case errors.Is(err, server.ErrOverloaded), errors.Is(err, cluster.ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrVersionConflict):
		return http.StatusConflict
	case errors.Is(err, store.ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrCorrupt):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// AnswerStatus maps an answer to its HTTP status: any usable value
// (exact, stale, bounded) is a 200, and an unavailable answer takes the
// status of its error.
func AnswerStatus(a socruntime.Answer) int {
	if a.Kind != socruntime.Unavailable {
		return http.StatusOK
	}
	return Status(a.Err)
}

// WriteJSON writes v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Reply is WriteJSON for answers and errors: a 503 also carries the
// Retry-After hint a shed client backs off by.
func Reply(w http.ResponseWriter, status int, v any) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, v)
}

// Error replies {"error": err} with the given status.
func Error(w http.ResponseWriter, status int, err error) {
	Reply(w, status, map[string]string{"error": err.Error()})
}

// Fail replies {"error": err} with the status the table gives err.
func Fail(w http.ResponseWriter, err error) {
	Error(w, Status(err), err)
}

// DecodePredict reads a PredictRequest body and its priority class. It
// reports false once it has answered a malformed request with a 400.
func DecodePredict(w http.ResponseWriter, r *http.Request) (PredictRequest, server.Priority, bool) {
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		Error(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return req, 0, false
	}
	pri, err := parsePriority(req.Priority)
	if err != nil {
		Error(w, http.StatusBadRequest, err)
		return req, 0, false
	}
	return req, pri, true
}

// Prepare resolves request-scoped state before a /predict is served: the
// context to serve under and the request scope, which replaces the
// body's. done reports that it has already written an error response.
type Prepare func(w http.ResponseWriter, r *http.Request) (ctx context.Context, scope string, done bool)

// Predict returns the POST /predict handler over serve (a server's or a
// fleet's Serve). A nil prepare serves under the request context with
// the scope the body names.
func Predict(serve func(context.Context, server.Request) socruntime.Answer, prepare Prepare) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := DecodePredict(w, r)
		if !ok {
			return
		}
		ctx, scope := r.Context(), req.Scope
		if prepare != nil {
			var done bool
			if ctx, scope, done = prepare(w, r); done {
				return
			}
		}
		ans := serve(ctx, server.Request{
			Service:  req.Service,
			Scope:    scope,
			Params:   req.Params,
			Priority: pri,
			Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		Reply(w, AnswerStatus(ans), ToResponse(ans))
	}
}

// ParametricStats is the /stats "parametric" block: which evaluation
// path (closed-form parametric vs numeric kernel) served the traffic.
// Fields are in key order: clients have always seen this block with
// sorted keys, as a map encodes.
type ParametricStats struct {
	Fallbacks        int    `json:"fallbacks"`
	GradientPoints   uint64 `json:"gradient_points"`
	NumericPoints    uint64 `json:"numeric_points"`
	Outputs          int    `json:"outputs"`
	ParametricPoints uint64 `json:"parametric_points"`
}

// Parametric reads a compiled artifact's parametric counters.
func Parametric(ca *core.CompiledAssembly) ParametricStats {
	ps := ca.ParametricStats()
	return ParametricStats{
		Fallbacks:        ps.Fallbacks,
		GradientPoints:   ps.GradientPoints,
		NumericPoints:    ps.NumericPoints,
		Outputs:          ps.Outputs,
		ParametricPoints: ps.ParametricPoints,
	}
}

// EstimatorStats is the /stats "estimator" block, fields in key order.
type EstimatorStats struct {
	BadMerges       uint64 `json:"bad_merges"`
	DriftViolations uint64 `json:"drift_violations"`
	Keys            int    `json:"keys"`
	Merged          uint64 `json:"merged"`
	Observed        uint64 `json:"observed"`
}

// Estimator reads an estimator's counters.
func Estimator(est *estimate.Estimator) EstimatorStats {
	es := est.Stats()
	return EstimatorStats{
		BadMerges:       es.BadMerges,
		DriftViolations: es.DriftViolations,
		Keys:            es.Keys,
		Merged:          es.Merged,
		Observed:        es.Observed,
	}
}

// EstimateMeta is the wire form of one estimation bucket in /estimates.
type EstimateMeta struct {
	Provider     string  `json:"provider"`
	Context      string  `json:"context,omitempty"`
	Load         int     `json:"load,omitempty"`
	Rate         float64 `json:"rate"`
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	Observations int     `json:"observations"`
	Failures     int     `json:"failures"`
	MeanLatencyS float64 `json:"mean_latency_s,omitempty"`
	Bound        float64 `json:"bound,omitempty"`
	Drift        string  `json:"drift,omitempty"`
	Direction    int     `json:"direction,omitempty"`
}

// Estimates renders an estimator's buckets, skipping those that have
// neither a fit nor an observation.
func Estimates(est *estimate.Estimator) []EstimateMeta {
	all := est.All()
	out := make([]EstimateMeta, 0, len(all))
	for _, b := range all {
		if !b.OK && b.Estimate.Observations == 0 {
			continue
		}
		m := EstimateMeta{
			Provider:     b.Key.Provider,
			Context:      b.Key.Context,
			Load:         b.Key.Load,
			Rate:         b.Estimate.Rate,
			Lo:           b.Estimate.Lo,
			Hi:           b.Estimate.Hi,
			Observations: b.Estimate.Observations,
			Failures:     b.Estimate.Failures,
			MeanLatencyS: b.Estimate.MeanLatency,
			Bound:        b.Bound,
			Direction:    b.Direction,
		}
		if b.Drift != monitor.Verdict(0) {
			m.Drift = b.Drift.String()
		}
		out = append(out, m)
	}
	return out
}
