package capacity

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"vrdfcap/internal/capacity/bigref"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Chain shapes of the differential tests.
const (
	shapeChain      = iota // graphgen chain of 2–20 tasks
	shapeOverflow          // the 30–40-task overflow repro family
	shapeSection5          // the §5 MP3 chain
	shapeStructural        // consumption zeros under a source constraint
	numShapes
)

var policies = [...]Policy{PolicyEquation4, PolicyHybrid, PolicyBaseline}

// curveChain builds the chain of one differential case. Variant bits are
// drawn from the seed: chain length 2–20, zero consumption quanta, source
// constraint, an infeasible task, quanta up to 8 or 16. It fails only when
// the generator itself overflows.
func curveChain(t testing.TB, shape uint8, seed int64) (*taskgraph.Graph, taskgraph.Constraint, error) {
	t.Helper()
	u := uint64(seed)
	cfg := graphgen.Defaults(seed)
	switch shape % numShapes {
	case shapeChain:
		cfg.MaxTasks = 2 + int(u%19)
		cfg.ZeroConsumption = u%3 == 0
		cfg.SourceConstrained = u%4 == 1
		cfg.Infeasible = u%5 == 2
		if u%7 == 3 {
			cfg.MaxQuantum = 16
		}
	case shapeOverflow:
		cfg.MinTasks, cfg.MaxTasks, cfg.MaxQuantum = 30, 40, 16
	case shapeSection5:
		g, err := mp3.Graph()
		if err != nil {
			t.Fatal(err)
		}
		return g, mp3.Constraint(), nil
	case shapeStructural:
		cfg.MaxTasks = 2 + int(u%19)
		cfg.ZeroConsumption = true
	}
	g, c, err := generate(cfg)
	if err != nil {
		return nil, c, err
	}
	if shape%numShapes == shapeStructural {
		// Zero consumption quanta are admissible only under a sink
		// constraint; constraining the source makes every period
		// infeasible whenever one was drawn.
		tasks, _, err := g.Chain()
		if err != nil {
			t.Fatal(err)
		}
		c.Task = tasks[0].Name
	}
	return g, c, nil
}

// generate is graphgen.Random with the generator's own int64 overflow —
// it propagates φ in ratio arithmetic too, and long chains with large
// quanta exceed it — reported as an error.
func generate(cfg graphgen.Config) (g *taskgraph.Graph, c taskgraph.Constraint, err error) {
	defer func() {
		if r := recover(); r != nil {
			oe, ok := r.(*ratio.OverflowError)
			if !ok {
				panic(r)
			}
			err = oe
		}
	}()
	return graphgen.Random(cfg)
}

// comparePoint checks Eval against At at one period, and against the
// math/big reference where At overflows: wherever At returns, Eval must
// agree exactly on validity, total and error text; wherever At overflows,
// Eval must report an *OverflowError or match the reference.
func comparePoint(g *taskgraph.Graph, task string, a *Analysis, c *Curve, tau ratio.Rat) error {
	valid, total, err := c.Eval(tau)
	res, atErr := a.At(tau)
	switch {
	case atErr == nil:
		if err != nil {
			return fmt.Errorf("period %v: Eval failed (%v) where At answered", tau, err)
		}
		if valid != res.Valid || total != res.TotalCapacity() {
			return fmt.Errorf("period %v: Eval (%v, %d), At (%v, %d)", tau, valid, total, res.Valid, res.TotalCapacity())
		}
	case !IsOverflow(atErr):
		if err == nil || err.Error() != atErr.Error() {
			return fmt.Errorf("period %v: Eval error %v, At error %v", tau, err, atErr)
		}
	case err != nil:
		var oe *OverflowError
		if !errors.As(err, &oe) && err != c.Err() {
			return fmt.Errorf("period %v: At overflowed, Eval failed with untyped %v", tau, err)
		}
	default:
		refValid, refTotal, refErr := bigref.Eval(g, task, a.Policy().String(), big.NewRat(tau.Num(), tau.Den()))
		if refErr != nil {
			return fmt.Errorf("period %v: Eval answered where the reference fails: %v", tau, refErr)
		}
		if valid != refValid || !refTotal.IsInt64() || total != refTotal.Int64() {
			return fmt.Errorf("period %v: Eval (%v, %d), reference (%v, %v)", tau, valid, total, refValid, refTotal)
		}
	}
	return nil
}

// compareSweep runs the point checks over a grid and checks that the sweep
// reports the first failing period in list order, exactly as At wraps it.
func compareSweep(g *taskgraph.Graph, task string, p Policy, periods []ratio.Rat) (points int, err error) {
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		return 0, err
	}
	c := a.Curve()
	var firstErr error
	for _, tau := range periods {
		if err := comparePoint(g, task, a, c, tau); err != nil {
			return points, fmt.Errorf("%v: %w", p, err)
		}
		points++
		if _, _, err := c.Eval(tau); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("capacity: period %v: %w", tau, err)
		}
	}
	pts, err := c.Sweep(periods, SweepOptions{})
	switch {
	case (err == nil) != (firstErr == nil) || (err != nil && err.Error() != firstErr.Error()):
		return points, fmt.Errorf("%v: sweep error %v, want %v", p, err, firstErr)
	case err == nil:
		for i, pt := range pts {
			if valid, total, _ := c.Eval(periods[i]); !pt.Period.Equal(periods[i]) || pt.Valid != valid || pt.Total != total || pt.Result != nil {
				return points, fmt.Errorf("%v: sweep point %d = %+v", p, i, pt)
			}
		}
	}
	return points, nil
}

// scaledPeriods returns base·k/den for k in [lo, hi), skipping products
// beyond int64.
func scaledPeriods(base ratio.Rat, lo, hi, den int64) []ratio.Rat {
	out := make([]ratio.Rat, 0, hi-lo)
	for k := lo; k < hi; k++ {
		f, err := ratio.New(k, den)
		if err != nil {
			continue
		}
		if tau, err := base.MulChecked(f); err == nil {
			out = append(out, tau)
		}
	}
	return out
}

// TestCurveMatchesAt is the seeded differential test of the closed form:
// 512 graphgen chains of 2–20 tasks swept over τ·k/64, k = 32…95, across
// their feasibility edge, plus 16 windows of the §5 chain around 1/44100,
// under all three policies — 101,376 points, every one of which must match
// Analysis.At (or the math/big reference where At overflows).
func TestCurveMatchesAt(t *testing.T) {
	points := 0
	for seed := int64(0); seed < 512; seed++ {
		g, con, err := curveChain(t, shapeChain, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		periods := scaledPeriods(con.Period, 32, 96, 64)
		for _, p := range policies {
			n, err := compareSweep(g, con.Task, p, periods)
			points += n
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	g, con, err := curveChain(t, shapeSection5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < 16; w++ {
		// (base + k·stride)/972405000 with 22050/972405000 = 1/44100.
		base, stride := 20002+w*509, 1+w%5
		periods := make([]ratio.Rat, 64)
		for k := range periods {
			periods[k] = ratio.MustNew(base+int64(k)*stride, 972405000)
		}
		for _, p := range policies {
			n, err := compareSweep(g, con.Task, p, periods)
			points += n
			if err != nil {
				t.Fatalf("§5 window %d: %v", w, err)
			}
		}
	}
	if points < 100_000 {
		t.Fatalf("compared %d points, want at least 100,000", points)
	}
	t.Logf("%d points, 0 mismatches", points)
}

// TestCurveOverflowRepro pins the overflow chain: a 39-task chain with
// quanta up to 16 whose step-by-step int64 analysis overflows at most
// periods τ·k/64. At must return the typed error instead of panicking, and
// the closed form must answer every period, matching math/big.
func TestCurveOverflowRepro(t *testing.T) {
	g, con, err := curveChain(t, shapeOverflow, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(g, con, PolicyEquation4); err != nil {
		t.Fatalf("the repro chain must analyse at its own period: %v", err)
	}
	tight := con
	tight.Period = con.Period.MulInt(33).DivInt(64)
	_, err = Compute(g, tight, PolicyEquation4)
	var oe *OverflowError
	var re *ratio.OverflowError
	if !errors.As(err, &oe) || !errors.As(err, &re) || !IsOverflow(err) {
		t.Fatalf("Compute at τ·33/64 = %v, want a typed overflow error", err)
	}
	a, err := CompileAnalysis(g, con.Task, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Curve()
	overflowed := 0
	for k := int64(1); k < 128; k++ {
		tau := con.Period.MulInt(k).DivInt(64)
		if _, err := a.At(tau); IsOverflow(err) {
			overflowed++
		}
		valid, total, err := c.Eval(tau)
		if err != nil {
			t.Fatalf("Eval(τ·%d/64): %v", k, err)
		}
		refValid, refTotal, err := bigref.Eval(g, con.Task, bigref.Equation4, big.NewRat(tau.Num(), tau.Den()))
		if err != nil {
			t.Fatal(err)
		}
		if valid != refValid || total != refTotal.Int64() {
			t.Fatalf("τ·%d/64: Eval (%v, %d), reference (%v, %v)", k, valid, total, refValid, refTotal)
		}
	}
	if overflowed == 0 {
		t.Fatal("At no longer overflows on the repro chain; pick a harder one")
	}
	t.Logf("At overflows on %d of 127 periods; Eval answered all of them", overflowed)
}

// TestCurveSection5 pins the §5 figures through the closed form: the
// threshold is exactly 1/44100 (the WCRTs are critical), the sweep total
// there is 6015+3263+883 = 10161, and the minimal feasible period of a grid
// around it is 1/44100.
func TestCurveSection5(t *testing.T) {
	g, con, err := curveChain(t, shapeSection5, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CompileAnalysis(g, con.Task, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Curve()
	if p, ok := c.Threshold(); !ok || !p.Equal(con.Period) {
		t.Fatalf("P* = %v (ok %v), want %v", p, ok, con.Period)
	}
	valid, total, err := c.Eval(con.Period)
	if err != nil || !valid || total != 10161 {
		t.Fatalf("Eval(1/44100) = (%v, %d, %v), want (true, 10161, nil)", valid, total, err)
	}
	grid := []ratio.Rat{con.Period.MulInt(2), con.Period.DivInt(2), con.Period, con.Period.MulInt(3).DivInt(4)}
	pt, err := MinimalFeasiblePeriod(g, con.Task, grid, PolicyEquation4)
	if err != nil || !pt.Period.Equal(con.Period) || pt.Total != 10161 || pt.Result == nil {
		t.Fatalf("MinimalFeasiblePeriod = %+v, %v", pt, err)
	}
}

// TestCurveStructural pins the structural verdict: a zero consumption
// quantum under a source constraint makes every period infeasible, with
// capacities still reported as At reports them.
func TestCurveStructural(t *testing.T) {
	found := false
	for seed := int64(0); seed < 64 && !found; seed++ {
		g, con, err := curveChain(t, shapeStructural, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := CompileAnalysis(g, con.Task, PolicyEquation4)
		if err != nil {
			t.Fatal(err)
		}
		c := a.Curve()
		pstar, ok := c.Threshold()
		if ok {
			continue
		}
		found = true
		// Straddle the schedule-check threshold: beyond it only the
		// zero quantum keeps the chain infeasible.
		for _, tau := range scaledPeriods(pstar, 1, 17, 4) {
			if err := comparePoint(g, con.Task, a, c, tau); err != nil {
				t.Fatal(err)
			}
			if valid, _, _ := c.Eval(tau); valid {
				t.Fatalf("period %v valid on a structurally infeasible chain", tau)
			}
		}
		if _, err := MinimalFeasiblePeriod(g, con.Task, scaledPeriods(pstar, 1, 17, 4), PolicyEquation4); err == nil {
			t.Fatal("structurally infeasible chain has a minimal feasible period")
		}
	}
	if !found {
		t.Fatal("no structurally infeasible chain among 64 seeds")
	}
}

// TestCurveErrors pins Eval's error texts against At's: a non-positive
// period and the baseline on variable quanta.
func TestCurveErrors(t *testing.T) {
	g := sweepPair(t) // λ = {2, 3}: variable consumption
	for _, p := range policies {
		a, err := CompileAnalysis(g, "wb", p)
		if err != nil {
			t.Fatal(err)
		}
		c := a.Curve()
		for _, tau := range []ratio.Rat{ratio.Zero, r(-1, 2), r(3, 1)} {
			if err := comparePoint(g, "wb", a, c, tau); err != nil {
				t.Fatal(err)
			}
		}
		if (c.Err() != nil) != (p == PolicyBaseline) {
			t.Fatalf("%v: Err() = %v", p, c.Err())
		}
	}
}

// FuzzSweepClosedForm is the differential fuzz target of the closed form:
// a chain shape and graphgen seed, a policy and a period num/den go in;
// over the grid τ·k/8, k = 1…16, Eval must match At wherever At returns
// and match the math/big reference (or report the typed overflow) wherever
// At overflows. Wherever At returns, the reference must agree with it too.
func FuzzSweepClosedForm(f *testing.F) {
	f.Add(uint8(shapeChain), int64(12), uint8(0), int64(1), int64(1)) // zero consumption quanta, sink-constrained
	f.Add(uint8(shapeChain), int64(1), uint8(1), int64(3), int64(4))  // zero production quanta, source-constrained
	f.Add(uint8(shapeChain), int64(1), uint8(2), int64(3), int64(4))  // baseline on variable quanta
	f.Add(uint8(shapeChain), int64(17), uint8(1), int64(5), int64(8)) // source-constrained, hybrid
	f.Add(uint8(shapeOverflow), int64(5000), uint8(0), int64(33), int64(64))
	f.Add(uint8(shapeSection5), int64(0), uint8(0), int64(1), int64(44100))
	f.Add(uint8(shapeSection5), int64(0), uint8(1), int64(1), int64(44100))
	f.Add(uint8(shapeStructural), int64(4), uint8(0), int64(2), int64(1)) // structurally infeasible
	f.Add(uint8(shapeChain), int64(8), uint8(0), int64(1)<<62, int64(1))  // huge period
	f.Add(uint8(shapeChain), int64(9), uint8(1), int64(1), int64(1)<<60)  // tiny period
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, policy uint8, num, den int64) {
		base, err := ratio.New(num, den)
		if err != nil {
			t.Skip()
		}
		g, con, err := curveChain(t, shape, seed)
		if err != nil {
			t.Skip(err)
		}
		p := policies[int(policy)%len(policies)]
		periods := scaledPeriods(base, 1, 17, 8)
		if len(periods) == 0 {
			t.Skip()
		}
		if _, err := compareSweep(g, con.Task, p, periods); err != nil {
			t.Fatal(err)
		}
		a, err := CompileAnalysis(g, con.Task, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range periods {
			res, err := a.At(tau)
			if err != nil {
				continue
			}
			refValid, refTotal, refErr := bigref.Eval(g, con.Task, p.String(), big.NewRat(tau.Num(), tau.Den()))
			if refErr != nil || refValid != res.Valid || !refTotal.IsInt64() || refTotal.Int64() != res.TotalCapacity() {
				t.Fatalf("period %v: At (%v, %d), reference (%v, %v, %v)", tau, res.Valid, res.TotalCapacity(), refValid, refTotal, refErr)
			}
		}
	})
}

// TestCurveWide pins the fallback for chains whose coefficients exceed
// int64 rationals: four buffers consuming q = 1000003 per firing make
// c_w = q⁻⁴ at the source, beyond int64, yet At still answers at periods
// that cancel it. Eval must then defer to At exactly, and the minimal
// feasible period must still be found: every task i < 4 has ρ = q^(i−3)
// against φ = q^(i−4)·τ, so P* = q.
func TestCurveWide(t *testing.T) {
	const q = 1000003
	stages := make([]taskgraph.Stage, 5)
	links := make([]taskgraph.Link, 4)
	wcrt := []ratio.Rat{r(1, q*q*q), r(1, q*q), r(1, q), r(1, 1), r(1, 1)}
	for i := range stages {
		stages[i] = taskgraph.Stage{Name: fmt.Sprintf("w%d", i), WCRT: wcrt[i]}
	}
	for i := range links {
		links[i] = taskgraph.Link{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(q)}
	}
	g, err := taskgraph.BuildChain(stages, links)
	if err != nil {
		t.Fatal(err)
	}
	periods := []ratio.Rat{r(1, 1), r(q-1, 1), r(q, 1), r(2*q, 1), r(q*q, 1), r(q*q*q, 1)}
	for _, p := range policies {
		a, err := CompileAnalysis(g, "w4", p)
		if err != nil {
			t.Fatal(err)
		}
		c := a.Curve()
		if _, ok := c.Threshold(); ok {
			t.Fatalf("%v: the coefficients fit int64; the chain no longer exercises the fallback", p)
		}
		answered := 0
		for _, tau := range periods {
			if err := comparePoint(g, "w4", a, c, tau); err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if valid, _, err := c.Eval(tau); err == nil && valid {
				answered++
			}
		}
		if answered == 0 {
			t.Fatalf("%v: no feasible period answered; the chain no longer exercises the fallback", p)
		}
	}
	// Without coefficients, feasibility comes from At: a candidate it
	// cannot decide is reported, never skipped.
	pt, err := MinimalFeasiblePeriod(g, "w4", periods[2:], PolicyEquation4)
	if err != nil || !pt.Period.Equal(r(q, 1)) || !pt.Valid {
		t.Fatalf("MinimalFeasiblePeriod = %+v, %v; want %v", pt, err, q)
	}
	if _, err := MinimalFeasiblePeriod(g, "w4", periods, PolicyEquation4); !IsOverflow(err) {
		t.Fatalf("MinimalFeasiblePeriod over an undecidable candidate: %v, want the overflow", err)
	}
}
