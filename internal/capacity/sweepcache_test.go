// Reuse and isolation tests for compiled sweep curves: a curve outlives a
// canceled sweep, is shared safely by concurrent sweeps over disjoint
// chunks of a period list, and a served sweep cannot be changed by
// period verdicts planted in the service's verdict store. The external
// test package breaks the capacity ← serve import cycle.
package capacity_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/serve"
	"vrdfcap/internal/taskgraph"
)

// pairDoc is the paper's Figure 1 producer-consumer pair.
const pairDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod 3 cons {2,3}
constraint b period 3
`

func decodePair(t *testing.T) (*taskgraph.Graph, *taskgraph.Constraint) {
	t.Helper()
	g, c, err := graphio.DecodeAnyLimited([]byte(pairDoc), graphio.DefaultLimits)
	if err != nil {
		t.Fatalf("decode pair: %v", err)
	}
	if c == nil {
		t.Fatal("pair document has no constraint")
	}
	return g, c
}

// pairGrid straddles the pair's feasibility frontier so a sweep mixes
// infeasible and feasible verdicts.
func pairGrid(n int) []ratio.Rat {
	out := make([]ratio.Rat, n)
	for i := range out {
		out[i] = ratio.MustNew(int64(i+1), 4) // 1/4, 1/2, ..., upward through 3
	}
	return out
}

// pairCurve compiles the pair's Eq. (4) curve for task b.
func pairCurve(t *testing.T) (*taskgraph.Graph, *capacity.Curve) {
	t.Helper()
	g, c := decodePair(t)
	a, err := capacity.CompileAnalysis(g, c.Task, capacity.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	curve := a.Curve()
	if err := curve.Err(); err != nil {
		t.Fatal(err)
	}
	return g, curve
}

// coldSweep is the reference: a fresh compile and sweep of the pair.
func coldSweep(t *testing.T, g *taskgraph.Graph, periods []ratio.Rat) []capacity.SweepPoint {
	t.Helper()
	pts, err := capacity.SweepPeriodsOpt(g, "b", periods, capacity.PolicyEquation4, capacity.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// mustMatchPoints compares two sweeps on the (period, valid, total)
// triples — the identity surface; sweep points carry a nil Result.
func mustMatchPoints(t *testing.T, got, want []capacity.SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Period.Equal(g.Period) || w.Valid != g.Valid || w.Total != g.Total {
			t.Fatalf("point %d: got (%s valid=%v total=%d), want (%s valid=%v total=%d)",
				i, g.Period, g.Valid, g.Total, w.Period, w.Valid, w.Total)
		}
	}
}

// countdownCtx is a context whose Err trips after a fixed number of budget
// checks, so a sweep can be canceled deterministically mid-flight — after
// some periods have been evaluated, but before all of them.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	// The sweep's budget checks use Err, not Done.
	return nil
}

// TestSweepCanceledWarmCacheReusable pins cancellation against a warm
// compiled curve: a sweep canceled mid-flight returns the typed error and
// no points, and later sweeps and minimal-period searches on the same
// curve and graph return exactly what a cold run returns.
func TestSweepCanceledWarmCacheReusable(t *testing.T) {
	g, curve := pairCurve(t)
	periods := pairGrid(64)

	pts, err := curve.Sweep(periods, capacity.SweepOptions{Context: newCountdownCtx(17)})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if pts != nil {
		t.Fatalf("canceled sweep returned %d points, want none", len(pts))
	}

	cold := coldSweep(t, g, periods)
	warm, err := curve.Sweep(periods, capacity.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatchPoints(t, warm, cold)

	if _, err := capacity.MinimalFeasiblePeriodOpt(g, "b", periods, capacity.PolicyEquation4,
		capacity.SweepOptions{Context: newCountdownCtx(3)}); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("minimal period: err = %v, want ErrCanceled", err)
	}
	got, err := capacity.MinimalFeasiblePeriodOpt(g, "b", periods, capacity.PolicyEquation4, capacity.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want *capacity.SweepPoint
	for i := range cold {
		if cold[i].Valid {
			want = &cold[i]
			break
		}
	}
	if want == nil {
		t.Fatal("no feasible period in the grid")
	}
	if !got.Period.Equal(want.Period) || got.Total != want.Total {
		t.Errorf("minimal period after a canceled search = (%v, %d), want (%v, %d)",
			got.Period, got.Total, want.Period, want.Total)
	}
}

// TestSweepIgnoresPoisonedCache pins that a period-verdict cache cannot
// change a served sweep: wrong verdicts planted for every period in the
// service's store, under the sweep's own key (capacity.SweepKey), leave
// /v1/sweep answering exactly the cold local curve, and the sweep leaves
// the planted verdicts and the store's entry count alone.
func TestSweepIgnoresPoisonedCache(t *testing.T) {
	g, _ := decodePair(t)
	periods := pairGrid(64)
	cold := coldSweep(t, g, periods)

	store := probecache.NewStore("")
	planted := store.Entry(capacity.SweepKey(g, "b", capacity.PolicyEquation4)).Periods()
	for _, pt := range cold {
		planted.Insert(pt.Period, probecache.Verdict{Valid: !pt.Valid, Total: -1})
	}
	entries := store.Stats().Entries

	s := serve.New(serve.Config{Store: store})
	t.Cleanup(s.Close)
	parts := make([]string, len(periods))
	for i, p := range periods {
		parts[i] = p.String()
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/v1/sweep?periods="+strings.Join(parts, ","), strings.NewReader(pairDoc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/sweep: status %d (%s)", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Points []struct {
			Period string `json:"period"`
			Valid  bool   `json:"valid"`
			Total  int64  `json:"total"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != len(cold) {
		t.Fatalf("served %d points, want %d", len(resp.Points), len(cold))
	}
	for i, pt := range resp.Points {
		if pt.Period != cold[i].Period.String() || pt.Valid != cold[i].Valid || pt.Total != cold[i].Total {
			t.Errorf("point %d poisoned: served %+v, cold %+v", i, pt, cold[i])
		}
	}

	if v, ok := planted.Lookup(periods[10]); !ok || v.Total != -1 {
		t.Errorf("sweep rewrote a planted verdict: %+v, %v", v, ok)
	}
	if got := store.Stats().Entries; got != entries {
		t.Errorf("sweep changed the store from %d to %d entries", entries, got)
	}
}

// sweepChunks distributes periods over n goroutines in contiguous chunks,
// all evaluating the one shared curve; opts returns each chunk's options.
// It returns every chunk's points and error, in chunk order.
func sweepChunks(curve *capacity.Curve, periods []ratio.Rat, n int,
	opts func(chunk int) capacity.SweepOptions) ([][]capacity.SweepPoint, []error, [][]ratio.Rat) {
	chunks := make([][]ratio.Rat, n)
	for i := range chunks {
		chunks[i] = periods[i*len(periods)/n : (i+1)*len(periods)/n]
	}
	pts := make([][]capacity.SweepPoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts[i], errs[i] = curve.Sweep(chunks[i], opts(i))
		}(i)
	}
	wg.Wait()
	return pts, errs, chunks
}

// TestDistributedSweepMatchesLocal pins that a compiled curve is safe to
// share: a sweep distributed over three goroutines, each evaluating a
// contiguous chunk of the periods on the same curve, folds to exactly the
// single serial sweep.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	g, curve := pairCurve(t)
	periods := pairGrid(96)
	pts, errs, _ := sweepChunks(curve, periods, 3, func(int) capacity.SweepOptions {
		return capacity.SweepOptions{}
	})
	var folded []capacity.SweepPoint
	for i := range pts {
		if errs[i] != nil {
			t.Fatalf("chunk %d: %v", i, errs[i])
		}
		folded = append(folded, pts[i]...)
	}
	mustMatchPoints(t, folded, coldSweep(t, g, periods))
}

// TestDistributedSweepWorkerKilledMidSweep pins that canceling one of
// several concurrent sweeps of a shared curve mid-flight affects only that
// sweep: the other chunks complete, the canceled one returns the typed
// error and no points, and re-sweeping it folds to the serial result.
func TestDistributedSweepWorkerKilledMidSweep(t *testing.T) {
	g, curve := pairCurve(t)
	periods := pairGrid(96)
	const killed = 1
	pts, errs, chunks := sweepChunks(curve, periods, 3, func(i int) capacity.SweepOptions {
		if i == killed {
			return capacity.SweepOptions{Context: newCountdownCtx(5)}
		}
		return capacity.SweepOptions{}
	})
	for i := range pts {
		if i == killed {
			if !errors.Is(errs[i], budget.ErrCanceled) || pts[i] != nil {
				t.Fatalf("killed chunk: %d points, err = %v; want none and ErrCanceled", len(pts[i]), errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("chunk %d: %v", i, errs[i])
		}
	}
	retry, err := curve.Sweep(chunks[killed], capacity.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pts[killed] = retry
	var folded []capacity.SweepPoint
	for _, p := range pts {
		folded = append(folded, p...)
	}
	mustMatchPoints(t, folded, coldSweep(t, g, periods))
}
