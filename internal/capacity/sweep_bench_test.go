package capacity

import (
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

type sweepFixture struct {
	g    *taskgraph.Graph
	task string
}

func benchmarkSweepFixture(b *testing.B) (sweepFixture, []ratio.Rat) {
	cfg := graphgen.Defaults(7)
	cfg.MinTasks, cfg.MaxTasks = 40, 40
	g, c, err := graphgen.Random(cfg)
	if err != nil {
		b.Fatal(err)
	}
	periods := make([]ratio.Rat, 64)
	for k := range periods {
		// τ·(k+20)/20: starts at the constraint period (feasible by
		// construction) and relaxes additively from there.
		periods[k] = c.Period.MulInt(int64(k + 20)).DivInt(20)
	}
	return sweepFixture{g: g, task: c.Task}, periods
}

// BenchmarkSweepPeriods sweeps 64 periods over a 40-stage chain: one
// compile (CompileAnalysis plus its closed form in the period) and 64
// closed-form evaluations. NoCache keeps the measurement free of cross-run
// verdict caching so allocs/op is deterministic for the CI bench gate.
func BenchmarkSweepPeriods(b *testing.B) {
	fx, periods := benchmarkSweepFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := SweepPeriodsOpt(fx.g, fx.task, periods, PolicyEquation4, SweepOptions{NoCache: true})
		if err != nil {
			b.Fatal(err)
		}
		if !pts[0].Valid {
			b.Fatalf("constraint period %v reported infeasible", pts[0].Period)
		}
	}
}

// BenchmarkCurveEval evaluates the compiled closed form of the same
// 40-stage chain at its 64 periods per op. The CI bench gate holds it at
// allocs_per_op zero: Eval is annotated //vrdf:noalloc.
func BenchmarkCurveEval(b *testing.B) {
	fx, periods := benchmarkSweepFixture(b)
	a, err := CompileAnalysis(fx.g, fx.task, PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	c := a.Curve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tau := range periods {
			if _, _, err := c.Eval(tau); err != nil {
				b.Fatal(err)
			}
		}
	}
}
