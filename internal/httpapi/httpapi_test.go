package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"socrel/internal/cluster"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
)

// TestStatusTable: every sentinel, bare and wrapped, gets its status,
// and Retry-After rides exactly on the 503s.
func TestStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{server.ErrOverloaded, http.StatusServiceUnavailable},
		{server.ErrQueueFull, http.StatusServiceUnavailable},
		{server.ErrDraining, http.StatusServiceUnavailable},
		{cluster.ErrStopped, http.StatusServiceUnavailable},
		{store.ErrNotFound, http.StatusNotFound},
		{store.ErrVersionConflict, http.StatusConflict},
		{store.ErrBadName, http.StatusBadRequest},
		{store.ErrCorrupt, http.StatusUnprocessableEntity},
		{errors.New("evaluation failed"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		for _, err := range []error{tc.err, fmt.Errorf("wrapped: %w", tc.err)} {
			if got := Status(err); got != tc.want {
				t.Errorf("Status(%v) = %d, want %d", err, got, tc.want)
			}
			rec := httptest.NewRecorder()
			Fail(rec, err)
			if rec.Code != tc.want {
				t.Errorf("Fail(%v) wrote %d, want %d", err, rec.Code, tc.want)
			}
			retry := rec.Header().Get("Retry-After") != ""
			if retry != (tc.want == http.StatusServiceUnavailable) {
				t.Errorf("Fail(%v): Retry-After present = %v with status %d", err, retry, rec.Code)
			}
			if !strings.Contains(rec.Body.String(), `"error":`) {
				t.Errorf("Fail(%v) body %q has no error field", err, rec.Body)
			}
		}
	}
}

// TestAnswerStatus: usable answers are 200 whatever error they carry;
// unavailable ones take their error's status, and a bare one is 500.
func TestAnswerStatus(t *testing.T) {
	cases := []struct {
		a    socruntime.Answer
		want int
	}{
		{socruntime.Answer{Kind: socruntime.Exact}, http.StatusOK},
		{socruntime.Answer{Kind: socruntime.Stale, Err: server.ErrQueueFull}, http.StatusOK},
		{socruntime.Answer{Kind: socruntime.Bounded, Err: errors.New("x")}, http.StatusOK},
		{socruntime.Answer{Kind: socruntime.Unavailable, Err: server.ErrDraining}, http.StatusServiceUnavailable},
		{socruntime.Answer{Kind: socruntime.Unavailable, Err: cluster.ErrStopped}, http.StatusServiceUnavailable},
		{socruntime.Answer{Kind: socruntime.Unavailable, Err: errors.New("x")}, http.StatusInternalServerError},
		{socruntime.Answer{Kind: socruntime.Unavailable}, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := AnswerStatus(tc.a); got != tc.want {
			t.Errorf("AnswerStatus(%v, %v) = %d, want %d", tc.a.Kind, tc.a.Err, got, tc.want)
		}
	}
}

// TestPredictPrepare: a prepare hook's scope replaces the body's, and a
// hook that answers itself ends the request.
func TestPredictPrepare(t *testing.T) {
	var gotScope string
	serve := func(_ context.Context, req server.Request) socruntime.Answer {
		gotScope = req.Scope
		return socruntime.Answer{Kind: socruntime.Exact, Pfail: 0.25}
	}
	body := `{"scope":"from-body","params":[1]}`

	rec := httptest.NewRecorder()
	Predict(serve, nil)(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
	if rec.Code != http.StatusOK || gotScope != "from-body" {
		t.Fatalf("no hook: status %d scope %q", rec.Code, gotScope)
	}

	hook := func(w http.ResponseWriter, r *http.Request) (context.Context, string, bool) {
		return r.Context(), "from-hook", false
	}
	rec = httptest.NewRecorder()
	Predict(serve, hook)(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
	if rec.Code != http.StatusOK || gotScope != "from-hook" {
		t.Fatalf("hook: status %d scope %q", rec.Code, gotScope)
	}

	gotScope = ""
	refuse := func(w http.ResponseWriter, r *http.Request) (context.Context, string, bool) {
		Fail(w, store.ErrNotFound)
		return nil, "", true
	}
	rec = httptest.NewRecorder()
	Predict(serve, refuse)(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
	if rec.Code != http.StatusNotFound || gotScope != "" {
		t.Fatalf("refusing hook: status %d, served scope %q", rec.Code, gotScope)
	}
}

type constEval struct{}

func (constEval) PfailCtx(context.Context, string, ...float64) (float64, error) { return 0.05, nil }

// resetBody is a request body that can be rewound without allocating.
type resetBody struct{ strings.Reader }

func (*resetBody) Close() error { return nil }

// predictAllocsCeiling is relserve's /predict handler before it moved
// here, measured the same way (stub evaluator behind the real admission
// layer, a fresh ResponseRecorder per request): 31 allocations. The
// shared handler must not cost more on that hot path.
const predictAllocsCeiling = 31

// TestPredictAllocs gates the allocations of one served /predict.
func TestPredictAllocs(t *testing.T) {
	srv := server.New(constEval{}, server.Config{Service: "search", Hedge: server.HedgeConfig{Disabled: true}})
	h := Predict(srv.Serve, nil)
	body := &resetBody{}
	req := httptest.NewRequest(http.MethodPost, "/predict", body)
	run := func() {
		body.Reset(`{"params":[1,4096,1]}`)
		rec := httptest.NewRecorder()
		h(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 100; i++ { // warm the server's pools and estimates
		run()
	}
	if got := testing.AllocsPerRun(1000, run); got > predictAllocsCeiling {
		t.Fatalf("/predict allocates %v per request, ceiling %d", got, predictAllocsCeiling)
	} else {
		t.Logf("/predict allocates %v per request (ceiling %d)", got, predictAllocsCeiling)
	}
}
