package capacity

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
)

// countdownCtx is a context whose Err trips after a fixed number of budget
// checks, so a sweep can be canceled deterministically mid-flight — after
// some periods have been analysed and recorded, but before all of them.
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
	// The sweep's budget checks use Err, not Done; an always-open channel
	// keeps parallel.Map's select from racing ahead of the countdown.
	return nil
}

// TestSweepCanceledWarmCacheReusable pins cancellation against a cache:
// a sweep canceled mid-flight returns the typed error and leaves the
// verdict cache exactly as it found it (sweeps never write it), and a later
// sweep and minimal-period search over the same options return exactly
// what a cold run returns.
func TestSweepCanceledWarmCacheReusable(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	cache := probecache.NewPeriods()

	_, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4,
		SweepOptions{Parallel: 1, Context: newCountdownCtx(17), Cache: cache})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("canceled sweep recorded %d verdicts, want none", n)
	}

	cold, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Valid != warm[i].Valid || cold[i].Total != warm[i].Total {
			t.Errorf("point %d diverged after cancel+resume: %+v vs %+v", i, cold[i], warm[i])
		}
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("sweep recorded %d verdicts, want none", n)
	}

	wantPt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	gotPt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !gotPt.Period.Equal(wantPt.Period) || gotPt.Total != wantPt.Total {
		t.Errorf("minimal period with a cache = (%v, %d), want (%v, %d)",
			gotPt.Period, gotPt.Total, wantPt.Period, wantPt.Total)
	}
}

// TestMinimalFeasiblePeriodMatchesLinearScan cross-checks the threshold
// lookup against the exhaustive scan on seeded random chains, with and
// without a cache in the options.
func TestMinimalFeasiblePeriodMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := graphgen.Defaults(seed + 40)
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var periods []ratio.Rat
		for k := int64(2); k < 18; k++ {
			periods = append(periods, c.Period.MulInt(k).DivInt(8))
		}
		pts, err := SweepPeriodsOpt(g, c.Task, periods, PolicyEquation4, SweepOptions{NoCache: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want *SweepPoint
		for i := range pts {
			if pts[i].Valid {
				want = &pts[i]
				break
			}
		}
		for _, opts := range []SweepOptions{{NoCache: true}, {Cache: probecache.NewPeriods()}} {
			got, err := MinimalFeasiblePeriodOpt(g, c.Task, periods, PolicyEquation4, opts)
			if want == nil {
				if err == nil {
					t.Fatalf("seed %d: no candidate is feasible but search returned %v", seed, got.Period)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.Period.Equal(want.Period) || got.Total != want.Total {
				t.Fatalf("seed %d: threshold lookup = (%v, %d), linear scan = (%v, %d)",
					seed, got.Period, got.Total, want.Period, want.Total)
			}
		}
	}
}

// TestSweepIgnoresPoisonedCache pins that a period-verdict cache cannot
// change a sweep's points: wrong verdicts planted for every period leave
// the curve and the minimal feasible period exactly as a cache-less run
// computes them, and the sweep leaves the planted verdicts alone.
func TestSweepIgnoresPoisonedCache(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	cold, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := probecache.NewPeriods()
	for _, pt := range cold {
		cache.Insert(pt.Period, probecache.Verdict{Valid: !pt.Valid, Total: -1})
	}

	pts, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Valid != pts[i].Valid || cold[i].Total != pts[i].Total {
			t.Errorf("point %d poisoned: %+v vs %+v", i, pts[i], cold[i])
		}
	}
	want, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Period.Equal(want.Period) || got.Total != want.Total {
		t.Errorf("poisoned minimal period = (%v, %d), want (%v, %d)", got.Period, got.Total, want.Period, want.Total)
	}
	if v, ok := cache.Lookup(periods[10]); !ok || v.Total != -1 {
		t.Errorf("sweep rewrote a planted verdict: %+v, %v", v, ok)
	}
}
