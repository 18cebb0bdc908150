package capacity

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/dispatch"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// SweepPoint is one point of a throughput/buffer trade-off curve: the
// period analysed, whether the chain is feasible at that period, and the
// resulting total capacity.
type SweepPoint struct {
	// Period is the analysed strict period of the constrained task.
	Period ratio.Rat
	// Valid reports whether every schedule check passed at this period.
	Valid bool
	// Total is the summed buffer capacity (meaningful when Valid).
	Total int64
	// Result is the full analysis at this period. Sweeps leave it nil —
	// they evaluate the closed form (Curve.Eval), not the per-buffer
	// analysis; CompileAnalysis(...).At(Period) materialises it.
	// MinimalFeasiblePeriod fills it for the point it returns.
	Result *Result
}

// SweepOptions tunes SweepPeriodsOpt and MinimalFeasiblePeriodOpt.
type SweepOptions struct {
	// Parallel is ignored: a period costs a few integer operations per
	// buffer, so sweeps evaluate the curve serially — a worker pool would
	// start after the sweep finished. The field stays for source
	// compatibility.
	Parallel int
	// Workers, when non-empty, lists remote vrdfserve base URLs
	// ("http://host:8080") and switches SweepPeriodsOpt to the
	// internal/dispatch coordinator: the grid is cut into interleaved
	// shards driven over each worker's /v1/probe endpoint, with retries,
	// per-worker circuit breaking, work stealing and a local fallback for
	// anything no worker answers. Every probe is the same pure function
	// wherever it runs, so the points' Period/Valid/Total are identical
	// to a local sweep under every fault schedule. MinimalFeasiblePeriodOpt
	// ignores Workers.
	Workers []string
	// DispatchStats, if non-nil, accumulates the coordinator's per-worker
	// shard/retry/steal counters across distributed sweeps.
	DispatchStats *dispatch.Stats
	// Context, if non-nil, cancels the sweep cooperatively between
	// periods; the typed error satisfies budget.ErrCanceled.
	Context context.Context
	// Deadline, if non-zero, bounds the sweep in wall-clock time; the
	// typed error satisfies budget.ErrBudgetExceeded.
	Deadline time.Time
	// Cache is the period-verdict cache the distributed coordinator
	// (Workers) records into and skips decided periods from. When nil,
	// the process-wide probecache.Shared() entry under
	// SweepKey(g, task, p) is used. Local sweeps and
	// MinimalFeasiblePeriodOpt never read or write it: the closed form
	// answers a period faster than a cache lookup.
	Cache *probecache.Periods
	// NoCache disables the coordinator's verdict cache entirely; it wins
	// over Cache.
	NoCache bool
}

// cache resolves the period-verdict cache the options select for graph g.
func (o SweepOptions) cache(g *taskgraph.Graph, task string, p Policy) *probecache.Periods {
	switch {
	case o.NoCache:
		return nil
	case o.Cache != nil:
		return o.Cache
	default:
		return probecache.Shared().Entry(SweepKey(g, task, p)).Periods()
	}
}

// SweepKey returns the probecache fingerprint under which distributed
// period sweeps of this (graph, constrained task, policy) triple share
// verdicts.
func SweepKey(g *taskgraph.Graph, task string, p Policy) string {
	return probecache.GraphKey(g, "capacity-sweep", task, p.String())
}

// SweepPeriods analyses the chain at every given period and returns the
// throughput/buffer trade-off curve — the design-space exploration that
// Stuijk et al. ([11] in the paper) perform for constant-rate SDF graphs,
// here available for data-dependent chains. Tighter periods need larger
// buffers; periods below a task's response-time limit are reported
// infeasible rather than skipped.
func SweepPeriods(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) ([]SweepPoint, error) {
	return SweepPeriodsOpt(g, task, periods, p, SweepOptions{})
}

// SweepPeriodsOpt is SweepPeriods with explicit options. The chain is
// compiled once into its closed form in the period (Analysis.Curve), and
// every period costs O(buffers) integer work.
func SweepPeriodsOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) ([]SweepPoint, error) {
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		return nil, err
	}
	return a.Curve().Sweep(periods, opts)
}

// Sweep evaluates the curve at every period, in order, and returns the
// trade-off points with a nil Result. The first failing period, in list
// order, is reported as "capacity: period τ: …". With opts.Workers the
// periods are sharded across remote workers instead, with this curve as
// the coordinator's local fallback.
func (c *Curve) Sweep(periods []ratio.Rat, opts SweepOptions) ([]SweepPoint, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("capacity: empty period sweep")
	}
	if len(opts.Workers) > 0 {
		return c.sweepDistributed(periods, opts)
	}
	bud := budget.At(opts.Context, opts.Deadline)
	out := make([]SweepPoint, len(periods))
	for i, tau := range periods {
		if err := bud.Err(); err != nil {
			return nil, err
		}
		valid, total, err := c.Eval(tau)
		if err != nil {
			return nil, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		out[i] = SweepPoint{Period: tau, Valid: valid, Total: total}
	}
	return out, nil
}

// MinimalFeasiblePeriod returns the smallest candidate period at which the
// chain is feasible, or an error if none is. The candidates may come in any
// order; they are sorted into a copy first, so the returned point is the
// true minimum.
func MinimalFeasiblePeriod(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) (SweepPoint, error) {
	return MinimalFeasiblePeriodOpt(g, task, periods, p, SweepOptions{})
}

// MinimalFeasiblePeriodOpt is MinimalFeasiblePeriod with explicit options.
//
// Validity is the threshold τ ≥ P* of the compiled curve, so the answer is
// the smallest candidate at or above P* (none when a zero quantum makes
// every period infeasible). Only that point is analysed in full, so the
// returned SweepPoint carries its Result.
func MinimalFeasiblePeriodOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) (SweepPoint, error) {
	if len(periods) == 0 {
		return SweepPoint{}, fmt.Errorf("capacity: empty period sweep")
	}
	// Sort and dedupe into a copy; the caller's slice is never mutated.
	less := func(i, j int) bool { return periods[i].Less(periods[j]) }
	sorted := make([]ratio.Rat, len(periods))
	copy(sorted, periods)
	periods = sorted
	if !sort.SliceIsSorted(periods, less) {
		sort.Slice(periods, less)
	}
	uniq := periods[:1]
	for _, tau := range periods[1:] {
		if !tau.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, tau)
		}
	}
	periods = uniq
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		return SweepPoint{}, err
	}
	c := a.Curve()
	bud := budget.At(opts.Context, opts.Deadline)
	for _, tau := range periods {
		if err := bud.Err(); err != nil {
			return SweepPoint{}, err
		}
		ok, err := c.Feasible(tau)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		if !ok {
			continue
		}
		res, err := a.At(tau)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		return SweepPoint{Period: tau, Valid: res.Valid, Total: res.TotalCapacity(), Result: res}, nil
	}
	return SweepPoint{}, fmt.Errorf("capacity: no feasible period among %d candidates (fastest %v, slowest %v)",
		len(periods), periods[0], periods[len(periods)-1])
}
