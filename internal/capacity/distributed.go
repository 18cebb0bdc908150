package capacity

import (
	"context"
	"fmt"

	"vrdfcap/internal/dispatch"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// sweepDistributed runs Curve.Sweep through the internal/dispatch
// coordinator: the graph is encoded once into the document every
// /v1/probe request carries, each worker URL becomes an HTTP prober, and
// the curve doubles as the coordinator's local fallback — so a period
// answered remotely and a period answered locally go through the same
// pure Eval(τ) function and the folded points match a local sweep exactly.
func (c *Curve) sweepDistributed(periods []ratio.Rat, opts SweepOptions) ([]SweepPoint, error) {
	a := c.a
	// The document's constraint names the constrained task; its period is
	// a placeholder — every probe overrides it with the batch's periods.
	doc, err := graphio.Encode(a.graph, &taskgraph.Constraint{Task: a.task, Period: periods[0]})
	if err != nil {
		return nil, fmt.Errorf("capacity: encode graph for workers: %w", err)
	}
	probers := make([]dispatch.Prober, 0, len(opts.Workers))
	for _, u := range opts.Workers {
		hp, err := dispatch.NewHTTPProber(u, a.policy.String(), doc)
		if err != nil {
			return nil, err
		}
		probers = append(probers, hp)
	}
	local := func(ctx context.Context, tau ratio.Rat) (probecache.Verdict, error) {
		valid, total, err := c.Eval(tau)
		if err != nil {
			return probecache.Verdict{}, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		return probecache.Verdict{Valid: valid, Total: total}, nil
	}
	vs, err := dispatch.Sweep(probers, local, periods, dispatch.Options{
		Context:  opts.Context,
		Deadline: opts.Deadline,
		Cache:    opts.cache(a.graph, a.task, a.policy),
		Stats:    opts.DispatchStats,
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(periods))
	for i, v := range vs {
		out[i] = SweepPoint{Period: periods[i], Valid: v.Valid, Total: v.Total}
	}
	return out, nil
}
