package minimize

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

func figure1Graph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const buf = "wa->wb"

func TestFigure1MinimalCapacities(t *testing.T) {
	// The paper's §1 numbers: the minimum buffer capacity for
	// deadlock-free execution is 3 when the consumption quantum is
	// always 3, but 4 when it is always 2 — "maximising the consumption
	// quantum does not lead to buffer capacities that are sufficient for
	// other consumption quanta."
	g := figure1Graph(t)
	cases := []struct {
		name string
		seq  quanta.Sequence
		want int64
	}{
		{"n=3 every execution", quanta.Constant(3), 3},
		{"n=2 every execution", quanta.Constant(2), 4},
		// Mixing is harder still: the alternating sequence needs 5.
		{"n alternating 2,3", quanta.Cycle(2, 3), 5},
	}
	for _, c := range cases {
		check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
			{buf: {Cons: c.seq}},
		})
		res, err := Search([]string{buf}, map[string]int64{buf: 20}, check)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.Caps[buf]; got != c.want {
			t.Errorf("%s: minimal capacity = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestThroughputMinimumAtMostEquation4(t *testing.T) {
	// Equation (4) gives 7 for this pair at τ = 3; the empirical
	// throughput-preserving minimum cannot exceed it.
	g := figure1Graph(t)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	workloads := []sim.Workloads{
		{buf: {Cons: quanta.Constant(2)}},
		{buf: {Cons: quanta.Constant(3)}},
		{buf: {Cons: quanta.Cycle(2, 3)}},
		{buf: {Cons: quanta.Uniform(taskgraph.MustQuanta(2, 3), 5)}},
	}
	check := ThroughputCheck(g, c, 300, workloads)
	res, err := Search([]string{buf}, map[string]int64{buf: 7}, check)
	if err != nil {
		t.Fatal(err)
	}
	if res.Caps[buf] > 7 {
		t.Errorf("empirical minimum %d exceeds Equation (4)'s 7", res.Caps[buf])
	}
	if res.Caps[buf] < 5 {
		t.Errorf("empirical minimum %d below the deadlock-free floor 5", res.Caps[buf])
	}
}

func TestSearchChainCoordinateDescent(t *testing.T) {
	// Three-stage constant-rate chain: every buffer shrinks to its local
	// minimum independently.
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)}, {Name: "c", WCRT: r(1, 1)},
		},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(2)},
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(3)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a->b", "b->c"}
	check := DeadlockFreeCheck(g, "c", 100, []sim.Workloads{{}})
	res, err := Search(names, map[string]int64{"a->b": 50, "b->c": 50}, check)
	if err != nil {
		t.Fatal(err)
	}
	// Constant-rate pair with p == c: a single quantum of slack
	// suffices for progress (no overlap), so the minimum is p.
	if res.Caps["a->b"] != 2 {
		t.Errorf("a->b minimal capacity = %d, want 2", res.Caps["a->b"])
	}
	if res.Caps["b->c"] != 3 {
		t.Errorf("b->c minimal capacity = %d, want 3", res.Caps["b->c"])
	}
	if res.Total() != 5 {
		t.Errorf("Total = %d, want 5", res.Total())
	}
	if res.Passes < 1 || res.Checks < 2 {
		t.Errorf("suspicious search stats: %+v", res)
	}
}

func TestSearchRejectsInfeasibleUpper(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 100, []sim.Workloads{
		{buf: {Cons: quanta.Constant(2)}},
	})
	if _, err := Search([]string{buf}, map[string]int64{buf: 3}, check); err == nil {
		t.Error("infeasible upper bound accepted")
	}
}

func TestSearchInputValidation(t *testing.T) {
	if _, err := Search(nil, nil, nil); err == nil {
		t.Error("empty buffer list accepted")
	}
	if _, err := Search([]string{"x"}, map[string]int64{}, nil); err == nil {
		t.Error("missing upper bound accepted")
	}
	if _, err := Search([]string{"x"}, map[string]int64{"x": 0}, nil); err == nil {
		t.Error("zero upper bound accepted")
	}
}

// TestFeasibleOutcomeSet pins the accepted/rejected outcome mapping:
// Completed and Deadlocked are evidence about capacities; every other
// outcome — including ones this package has never heard of — is an error,
// never a silent "infeasible".
func TestFeasibleOutcomeSet(t *testing.T) {
	cases := []struct {
		outcome sim.Outcome
		ok      bool
		err     bool
	}{
		{sim.Completed, true, false},
		{sim.Deadlocked, false, false},
		{sim.Underrun, false, true},
		{sim.LimitExceeded, false, true},
		{sim.Outcome(99), false, true},
	}
	for _, c := range cases {
		ok, err := feasibleOutcome(&sim.Result{Outcome: c.outcome})
		if ok != c.ok || (err != nil) != c.err {
			t.Errorf("feasibleOutcome(%v) = (%v, %v), want ok=%v err=%v", c.outcome, ok, err, c.ok, c.err)
		}
	}
}

// TestMaxEventsIsErrorNotInfeasible is the regression test for the outcome
// conflation bug: a simulation cut short by the runaway guard used to be
// reported as "infeasible", which silently inflated the minimal capacities
// the search returned. It must surface as an error instead.
func TestMaxEventsIsErrorNotInfeasible(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
		{buf: {Cons: quanta.Constant(3)}},
	}, Options{MaxEvents: 5})
	ok, err := check(map[string]int64{buf: 20})
	if err == nil {
		t.Fatalf("truncated simulation reported (%v, nil); want an error", ok)
	}
	if !strings.Contains(err.Error(), "says nothing about capacity feasibility") {
		t.Errorf("unexpected error text: %v", err)
	}
	if _, serr := Search([]string{buf}, map[string]int64{buf: 20}, check); serr == nil {
		t.Error("Search swallowed the truncated-simulation error")
	}
}

// TestThroughputMaxEventsIsErrorNotInfeasible is the throughput-check twin
// of TestMaxEventsIsErrorNotInfeasible: a throughput probe whose run is cut
// short by MaxEvents — before the constrained task's first start, while the
// producer fills the buffer, or after it, in the periodic part — must
// surface as an error, and a search hitting it must leave the shared
// frontier empty rather than record the assignment as infeasible.
func TestThroughputMaxEventsIsErrorNotInfeasible(t *testing.T) {
	g := figure1Graph(t)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	workloads := []sim.Workloads{{buf: {Cons: quanta.Constant(3)}}}
	sized := g.Clone()
	sized.BufferByName(buf).Capacity = 20
	vf, err := sim.CompileVerifier(sized, c, sim.VerifyOptions{Firings: 200, Workloads: workloads[0]})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := vf.Feasible(nil); err != nil || !ok {
		t.Fatalf("unguarded probe: (%v, %v)", ok, err)
	}
	// The producer fills the 20-token buffer in six firings before the
	// consumer is released; the full run takes far more events.
	full, _, _, _ := vf.LastEffort()
	if full < 10 {
		t.Fatalf("unguarded probe ran only %d events", full)
	}
	// The run is self-timed up to the constrained task's first start and
	// periodic after it; cut it once in each part.
	for _, tc := range []struct {
		part, when string
		maxEvents  int64
	}{
		{"self-timed", "before", 1},
		{"periodic", "after", full - 1},
	} {
		t.Run(tc.part, func(t *testing.T) {
			frontier := probecache.NewFrontier([]string{buf})
			opts := Options{MaxEvents: tc.maxEvents, Cache: frontier}
			check := ThroughputCheck(g, c, 200, workloads, opts)
			ok, err := check(map[string]int64{buf: 20})
			if err == nil {
				t.Fatalf("run cut %s the first start reported (%v, nil); want an error", tc.when, ok)
			}
			if !errors.Is(err, sim.ErrLimitExceeded) ||
				!strings.Contains(err.Error(), tc.when+" the constrained task's first start") ||
				!strings.Contains(err.Error(), "says nothing about capacity feasibility") {
				t.Errorf("unexpected error text: %v", err)
			}
			if _, serr := Search([]string{buf}, map[string]int64{buf: 20}, check, opts); serr == nil {
				t.Error("Search swallowed the truncated-verification error")
			}
			if feas, infeas := frontier.Size(); feas != 0 || infeas != 0 {
				t.Errorf("frontier recorded %d feasible / %d infeasible verdicts from truncated runs", feas, infeas)
			}
		})
	}
}

// TestSearchSerialParallelEquivalence pins the concurrency contract of the
// minimiser: searches running at once over one shared CheckFunc (whose
// per-workload simulations fan out on their own) and one shared Frontier
// each find the capacities of a lone serial search — on the paper's
// Figure 1 pair and on seeded random chains.
func TestSearchSerialParallelEquivalence(t *testing.T) {
	t.Run("figure1", func(t *testing.T) {
		g := figure1Graph(t)
		concurrentSearches(t, g, "wb", []string{buf}, map[string]int64{buf: 20}, []sim.Workloads{
			{buf: {Cons: quanta.Constant(2)}},
			{buf: {Cons: quanta.Cycle(2, 3)}},
		}, Options{})
	})
	for seed := int64(0); seed < 4; seed++ {
		g, c, buffers, upper := randomChain(t, seed+300)
		t.Run("chain", func(t *testing.T) {
			concurrentSearches(t, g, c.Task, buffers, upper, []sim.Workloads{
				sim.UniformWorkloads(g, seed),
				sim.AdversarialWorkloads(g, sim.AdversaryMin),
				sim.AdversarialWorkloads(g, sim.AdversaryAlternate),
			}, Options{})
		})
	}
}

// randomChain returns a seeded graphgen chain, its constraint, its buffer
// names and an upper bound of 40 on every buffer.
func randomChain(t *testing.T, seed int64) (*taskgraph.Graph, taskgraph.Constraint, []string, map[string]int64) {
	t.Helper()
	g, c, err := graphgen.Random(graphgen.Defaults(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buffers []string
	upper := make(map[string]int64)
	for _, b := range g.Buffers() {
		buffers = append(buffers, b.Name)
		upper[b.Name] = 40
	}
	return g, c, buffers, upper
}

// concurrentSearches runs the service pattern: four searches at once over
// one DeadlockFreeCheck and one Frontier, both shared. Each must return the
// capacities and pass count of a lone serial search with a private cache,
// and a final search over the now fully warm frontier must simulate
// nothing. opts configures the shared check (e.g. its checkpoints).
func concurrentSearches(t *testing.T, g *taskgraph.Graph, task string, buffers []string, upper map[string]int64, workloads []sim.Workloads, opts Options) {
	t.Helper()
	want, err := Search(buffers, upper, DeadlockFreeCheck(g, task, 60, workloads, opts))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	check := DeadlockFreeCheck(g, task, 60, workloads, opts)
	shared := Options{Cache: probecache.NewFrontier(buffers)}
	const searches = 4
	results := make([]*Result, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Search(buffers, upper, check, shared)
		}()
	}
	wg.Wait()
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got.Caps, want.Caps) {
			t.Fatalf("search %d: caps differ\nserial:     %v\nconcurrent: %v", i, want.Caps, got.Caps)
		}
		if got.Passes != want.Passes {
			t.Errorf("search %d: passes %d, serial %d", i, got.Passes, want.Passes)
		}
	}
	final, err := Search(buffers, upper, check, shared)
	if err != nil {
		t.Fatalf("final: %v", err)
	}
	if !reflect.DeepEqual(final.Caps, want.Caps) {
		t.Fatalf("final search: caps %v, serial %v", final.Caps, want.Caps)
	}
	if final.Checks != 0 {
		t.Errorf("fully warm search simulated %d probes", final.Checks)
	}
}

// TestSearchCacheSubsumesConfirmationProbes pins the feasibility cache's
// effect on a three-buffer chain: the confirmation passes of the coordinate
// descent re-probe assignments whose verdicts monotonicity already
// determines (each probe at or below a known-infeasible vector, or at or
// above a known-feasible one), so the cached search must simulate strictly
// fewer probes while finding identical capacities. The probe sequence is
// identical with and without the cache, so simulated plus cache-answered
// probes add up exactly to the uncached check count.
func TestSearchCacheSubsumesConfirmationProbes(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)},
			{Name: "c", WCRT: r(1, 1)}, {Name: "d", WCRT: r(1, 1)},
		},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(2)},
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(3)},
			{Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(4)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a->b", "b->c", "c->d"}
	upper := map[string]int64{"a->b": 50, "b->c": 50, "c->d": 50}
	cached, err := Search(names, upper, DeadlockFreeCheck(g, "d", 100, []sim.Workloads{{}}))
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := Options{NoCache: true}
	plain, err := Search(names, upper,
		DeadlockFreeCheck(g, "d", 100, []sim.Workloads{{}}, plainOpts), plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Caps, plain.Caps) {
		t.Fatalf("cache changed the result: cached %v, uncached %v", cached.Caps, plain.Caps)
	}
	if cached.Passes != plain.Passes {
		t.Errorf("cache changed the pass count: %d vs %d", cached.Passes, plain.Passes)
	}
	if plain.CacheHits != 0 {
		t.Errorf("NoCache search reported %d cache hits", plain.CacheHits)
	}
	if cached.CacheHits == 0 {
		t.Error("cached search answered no probe from the cache")
	}
	if cached.Checks >= plain.Checks {
		t.Errorf("cache did not reduce simulated probes: %d cached vs %d uncached", cached.Checks, plain.Checks)
	}
	if got, want := cached.Checks+cached.CacheHits, plain.Checks; got != want {
		t.Errorf("probe sequence changed: %d simulated + %d cached = %d, want %d",
			cached.Checks, cached.CacheHits, got, want)
	}
}

// TestSearchCacheParityOnRandomChains pins the acceptance contract that the
// feasibility cache never changes the capacities the search finds — on
// seeded random chains.
func TestSearchCacheParityOnRandomChains(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, c, buffers, upper := randomChain(t, seed+300)
		workloads := []sim.Workloads{
			sim.UniformWorkloads(g, seed),
			sim.AdversarialWorkloads(g, sim.AdversaryMin),
		}
		cached, err := Search(buffers, upper, DeadlockFreeCheck(g, c.Task, 60, workloads))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := Options{NoCache: true}
		plain, err := Search(buffers, upper,
			DeadlockFreeCheck(g, c.Task, 60, workloads, opts), opts)
		if err != nil {
			t.Fatalf("seed %d (no cache): %v", seed, err)
		}
		if !reflect.DeepEqual(cached.Caps, plain.Caps) {
			t.Fatalf("seed %d: cache changed the result\ncached:   %v\nuncached: %v",
				seed, cached.Caps, plain.Caps)
		}
		if cached.Passes != plain.Passes {
			t.Errorf("seed %d: pass count %d vs %d", seed, cached.Passes, plain.Passes)
		}
	}
}

func TestDeadlockCheckUnknownBuffer(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 10, []sim.Workloads{
		{buf: {Cons: quanta.Constant(3)}},
	})
	if _, err := check(map[string]int64{"nope": 3}); err == nil {
		t.Error("unknown buffer accepted")
	}
}

// verifyCheck is the two-phase reference ThroughputCheck replaced: a fresh
// sim.VerifyThroughput per workload on a graph sized to the probe.
func verifyCheck(g *taskgraph.Graph, c taskgraph.Constraint, firings int64, workloads []sim.Workloads) CheckFunc {
	return func(caps map[string]int64) (bool, error) {
		sized := g.Clone()
		for name, v := range caps {
			sized.BufferByName(name).Capacity = v
		}
		for _, w := range workloads {
			v, err := sim.VerifyThroughput(sized, c, sim.VerifyOptions{Firings: firings, Workloads: w, LiteResult: true})
			if err != nil {
				return false, err
			}
			if v.LimitExceeded && !v.OK {
				return false, fmt.Errorf("reference verification cut short: %s", v.Reason)
			}
			if !v.OK {
				return false, nil
			}
		}
		return true, nil
	}
}

// TestThroughputSearchMatchesVerify: a search whose throughput probes run
// one simulation from quiescence (ThroughputCheck via Feasible) finds the
// same capacities, with the same number of simulated probes, as one whose
// probes run Verify's two phases — on sink- and source-constrained graphgen
// chains, including ones with zero consumption quanta, under uniform and
// adversarial workloads.
func TestThroughputSearchMatchesVerify(t *testing.T) {
	searched := 0
	for seed := int64(0); seed < 16; seed++ {
		cfg := graphgen.Defaults(seed + 900)
		cfg.SourceConstrained = seed%3 == 1
		cfg.ZeroConsumption = seed%4 == 2
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bufs := g.Buffers()
		buffers := make([]string, 0, len(bufs))
		upper := make(map[string]int64, len(bufs))
		for _, b := range bufs {
			buffers = append(buffers, b.Name)
			upper[b.Name] = 60
		}
		workloads := []sim.Workloads{
			sim.UniformWorkloads(g, seed),
			sim.AdversarialWorkloads(g, sim.Adversaries[seed%3]),
		}
		const firings = 200
		ref, rerr := Search(buffers, upper, verifyCheck(g, c, firings, workloads))
		got, gerr := Search(buffers, upper, ThroughputCheck(g, c, firings, workloads, Options{Checkpoints: 4}))
		if (rerr == nil) != (gerr == nil) {
			t.Fatalf("seed %d: reference err %v, ThroughputCheck err %v", seed, rerr, gerr)
		}
		if rerr != nil {
			continue // upper bound infeasible for both
		}
		searched++
		if !reflect.DeepEqual(ref.Caps, got.Caps) || ref.Checks != got.Checks {
			t.Fatalf("seed %d: Verify-based search %v (%d checks), ThroughputCheck %v (%d checks)",
				seed, ref.Caps, ref.Checks, got.Caps, got.Checks)
		}
	}
	if searched < 8 {
		t.Fatalf("only %d of 16 chains were searchable; the comparison is too thin", searched)
	}
}
