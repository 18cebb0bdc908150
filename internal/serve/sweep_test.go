package serve

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vrdfcap/internal/capacity/bigref"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// serveDirect sends one request through ServeHTTP on a recorder, so a
// panic escaping the handler would fail the test instead of being eaten by
// net/http's per-connection recovery.
func serveDirect(s *Server, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func periodList(periods []ratio.Rat) string {
	parts := make([]string, len(periods))
	for i, p := range periods {
		parts[i] = p.String()
	}
	return strings.Join(parts, ",")
}

// TestOverflowChainAnswered is the regression test for chains whose exact
// int64 analysis overflows: a 39-task graphgen chain with quanta up to 16
// that analyses cleanly at its own period τ but overflows at τ·33/64.
// /v1/size at τ·33/64 must answer 400, /v1/sweep over τ·k/64, k = 1…127,
// must answer 200 with every point equal to the math/big reference, and
// the server must stay up.
func TestOverflowChainAnswered(t *testing.T) {
	cfg := graphgen.Defaults(5000)
	cfg.MinTasks, cfg.MaxTasks, cfg.MaxQuantum = 30, 40, 16
	g, con, err := graphgen.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := taskgraph.Constraint{Task: con.Task, Period: con.Period.MulInt(33).DivInt(64)}
	doc, err := graphio.Encode(g, &tight)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{MaxSweepPeriods: 127})

	if status, body := serveDirect(s, http.MethodPost, "/v1/size", doc); status != http.StatusBadRequest || !strings.Contains(string(body), "overflow") {
		t.Fatalf("/v1/size at τ·33/64: status %d (%s), want 400 naming the overflow", status, body)
	}

	periods := make([]ratio.Rat, 127)
	for k := range periods {
		periods[k] = con.Period.MulInt(int64(k + 1)).DivInt(64)
	}
	status, body := serveDirect(s, http.MethodPost, "/v1/sweep?periods="+periodList(periods), doc)
	if status != http.StatusOK {
		t.Fatalf("/v1/sweep: status %d (%.300s), want 200", status, body)
	}
	var sweep sweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != len(periods) {
		t.Fatalf("sweep answered %d points, want %d", len(sweep.Points), len(periods))
	}
	for i, pt := range sweep.Points {
		tau := periods[i]
		valid, total, err := bigref.Eval(g, con.Task, bigref.Equation4, big.NewRat(tau.Num(), tau.Den()))
		if err != nil {
			t.Fatal(err)
		}
		if pt.Period != tau.String() || pt.Valid != valid || !total.IsInt64() || pt.Total != total.Int64() {
			t.Fatalf("point %d: served %+v, reference (%v, %v)", i, pt, valid, total)
		}
	}

	if status, _ := serveDirect(s, http.MethodGet, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("/healthz after the overflow chain: status %d", status)
	}
}

// TestSweepsLeaveStoreUntouched is the regression test for verdict-store
// growth: distinct sweeps must not add entries to the store,
// which lives as long as the process and never evicts.
func TestSweepsLeaveStoreUntouched(t *testing.T) {
	store := probecache.NewStore("")
	s := newTestServer(t, Config{Store: store})
	before := store.Stats().Entries
	for i := 0; i < 16; i++ {
		g, con, err := graphgen.Random(graphgen.Defaults(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := graphio.Encode(g, &con)
		if err != nil {
			t.Fatal(err)
		}
		periods := []ratio.Rat{con.Period.DivInt(2), con.Period, con.Period.MulInt(2)}
		if status, body := serveDirect(s, http.MethodPost, "/v1/sweep?periods="+periodList(periods), doc); status != http.StatusOK {
			t.Fatalf("sweep %d: status %d (%s)", i, status, body)
		}
	}
	if after := store.Stats().Entries; after != before {
		t.Fatalf("16 distinct sweeps grew the verdict store from %d to %d entries", before, after)
	}
}

// TestJobPanicIs500 pins the job runner's last line of defence: a panic
// inside a computation answers that request 500 and leaves the server
// serving.
func TestJobPanicIs500(t *testing.T) {
	var panicked atomic.Bool
	cfg := Config{}
	cfg.computeHook = func() {
		if panicked.CompareAndSwap(false, true) {
			panic("injected")
		}
	}
	s := newTestServer(t, cfg)
	status, body := serveDirect(s, http.MethodPost, "/v1/size", []byte(pairDoc))
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "injected") {
		t.Fatalf("panicking job: status %d (%s), want 500", status, body)
	}
	if status, body := serveDirect(s, http.MethodPost, "/v1/size", []byte(pairDoc)); status != http.StatusOK {
		t.Fatalf("after the panic: status %d (%s), want 200", status, body)
	}
	if status, _ := serveDirect(s, http.MethodGet, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("/healthz after the panic: status %d", status)
	}
	if n := s.StatsSnapshot().Errors; n != 1 {
		t.Fatalf("errors = %d, want 1", n)
	}
}
