package capacity

import (
	"math/rand"
	"reflect"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func sweepPair(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSweepPeriodsTradeoff(t *testing.T) {
	g := sweepPair(t)
	periods := []ratio.Rat{r(1, 2), r(1, 1), r(3, 2), r(3, 1), r(6, 1), r(12, 1)}
	pts, err := SweepPeriods(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(periods) {
		t.Fatalf("got %d points", len(pts))
	}
	// Feasibility: wb needs τ >= ρ(wb) = 1 and wa needs φ(wa) = τ·π̌/γ̂ =
	// τ >= 1. So τ = 1/2 is infeasible, the rest feasible.
	if pts[0].Valid {
		t.Error("τ = 1/2 reported feasible")
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].Valid {
			t.Errorf("τ = %v reported infeasible", pts[i].Period)
		}
	}
	// Capacity is non-increasing as the period relaxes.
	for i := 2; i < len(pts); i++ {
		if pts[i].Total > pts[i-1].Total {
			t.Errorf("capacity grew when relaxing period: %v -> %v gives %d -> %d",
				pts[i-1].Period, pts[i].Period, pts[i-1].Total, pts[i].Total)
		}
	}
	// Known anchor: τ = 3 gives capacity 7.
	if pts[3].Total != 7 {
		t.Errorf("τ = 3 total = %d, want 7", pts[3].Total)
	}
	// A very relaxed period approaches the structural floor
	// ⌊ρ-terms⌋ + p̂ + ĉ − 1 with the ρ term vanishing: 3 + 3 − 1 + small.
	if last := pts[len(pts)-1].Total; last > 7 || last < 5 {
		t.Errorf("relaxed-period capacity = %d, want within [5, 7]", last)
	}
}

func TestMinimalFeasiblePeriod(t *testing.T) {
	g := sweepPair(t)
	periods := []ratio.Rat{r(1, 4), r(1, 2), r(1, 1), r(2, 1)}
	pt, err := MinimalFeasiblePeriod(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Period.Equal(r(1, 1)) {
		t.Errorf("minimal feasible period = %v, want 1", pt.Period)
	}
	if _, err := MinimalFeasiblePeriod(g, "wb", []ratio.Rat{r(1, 8)}, PolicyEquation4); err == nil {
		t.Error("infeasible-only sweep returned a period")
	}
}

func TestSweepEmptyRejected(t *testing.T) {
	g := sweepPair(t)
	if _, err := SweepPeriods(g, "wb", nil, PolicyEquation4); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := MinimalFeasiblePeriod(g, "wb", nil, PolicyEquation4); err == nil {
		t.Error("empty minimal-period sweep accepted")
	}
}

// TestMinimalFeasiblePeriodShuffled is the regression test for the
// ascending-order contract: an unsorted candidate list used to silently
// return the first feasible period encountered, not the minimal one.
func TestMinimalFeasiblePeriodShuffled(t *testing.T) {
	g := sweepPair(t)
	ascending := []ratio.Rat{r(1, 4), r(1, 2), r(1, 1), r(3, 2), r(2, 1), r(4, 1)}
	want, err := MinimalFeasiblePeriod(g, "wb", ascending, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Period.Equal(r(1, 1)) {
		t.Fatalf("ascending list: minimal period %v, want 1", want.Period)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := make([]ratio.Rat, len(ascending))
		copy(shuffled, ascending)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := MinimalFeasiblePeriod(g, "wb", shuffled, PolicyEquation4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Period.Equal(want.Period) || got.Total != want.Total {
			t.Fatalf("trial %d: shuffled list %v returned period %v (total %d), want %v (total %d)",
				trial, shuffled, got.Period, got.Total, want.Period, want.Total)
		}
		// The input list must not be mutated by the internal sort.
		for i := range shuffled {
			if i > 0 && shuffled[i].Less(shuffled[i-1]) {
				break // still shuffled: good
			}
			if i == len(shuffled)-1 {
				t.Logf("trial %d: shuffle happened to be sorted", trial)
			}
		}
	}
}

// TestSweepSerialParallelEquivalence pins the tentpole contract: the
// parallel sweep returns bit-identical results to the serial loop on
// seeded random chains — same ordering, same analyses, same totals.
func TestSweepSerialParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := graphgen.Defaults(seed)
		cfg.ZeroConsumption = seed%3 == 0
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Period axis straddling the feasibility frontier: τ·k/8 for
		// k = 2..17 — tighter than τ below k = 8, relaxed above.
		var periods []ratio.Rat
		for k := int64(2); k < 18; k++ {
			periods = append(periods, c.Period.MulInt(k).DivInt(8))
		}
		serial, err := SweepPeriodsOpt(g, c.Task, periods, PolicyEquation4, SweepOptions{Parallel: 1})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		par, err := SweepPeriodsOpt(g, c.Task, periods, PolicyEquation4, SweepOptions{Parallel: 8})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("seed %d: serial and parallel sweeps differ\nserial:   %+v\nparallel: %+v", seed, serial, par)
		}
	}
}

// TestSweepErrorDeterminism checks that a failing period reports the same
// error under both paths: the first failure in list order, regardless of
// which worker hits an error first.
func TestSweepErrorDeterminism(t *testing.T) {
	g := sweepPair(t)
	// An unknown task makes Compute fail for every period; the reported
	// period must be the first one in list order either way.
	periods := []ratio.Rat{r(5, 1), r(7, 1), r(9, 1)}
	_, serialErr := SweepPeriodsOpt(g, "nope", periods, PolicyEquation4, SweepOptions{Parallel: 1})
	_, parErr := SweepPeriodsOpt(g, "nope", periods, PolicyEquation4, SweepOptions{Parallel: 8})
	if serialErr == nil || parErr == nil {
		t.Fatalf("expected errors, got %v and %v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error mismatch:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// TestMinimalFeasiblePeriodMatchesLinearScan cross-checks the threshold
// lookup against the exhaustive scan on seeded random chains.
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
		pts, err := SweepPeriods(g, c.Task, periods, PolicyEquation4)
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
		got, err := MinimalFeasiblePeriod(g, c.Task, periods, PolicyEquation4)
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
