package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/taskgraph"
)

// heldAndPeriodic compiles two runs of one sized graph that differ only in
// the constrained task's mode: PeriodicQuiescent, and Periodic at offset 0
// (repointed by the caller).
func heldAndPeriodic(t *testing.T, g *taskgraph.Graph, c taskgraph.Constraint, w Workloads, firings int64) (held, periodic *Machine) {
	t.Helper()
	cfg, _, err := TaskGraphConfig(g, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: c.Task, Firings: firings}
	for _, task := range g.Tasks() {
		cfg.RecordStarts = append(cfg.RecordStarts, task.Name)
	}
	hcfg := withActor(cfg, c.Task, ActorConfig{Mode: PeriodicQuiescent, Period: c.Period})
	if held, err = Compile(hcfg); err != nil {
		t.Fatal(err)
	}
	pcfg := withActor(cfg, c.Task, ActorConfig{Mode: Periodic, Offset: r(0, 1), Period: c.Period})
	if periodic, err = Compile(pcfg); err != nil {
		t.Fatal(err)
	}
	return held, periodic
}

// TestQuiescentRunIsPeriodicRunAtReleaseTick pins the engine mode against
// its definition: a PeriodicQuiescent run is the Periodic run whose offset
// is the tick T_q at which the rest of the graph ran dry — bit-identical
// results, completed or underrun — and at T_q every other task has stopped:
// none of them has a firing in flight.
func TestQuiescentRunIsPeriodicRunAtReleaseTick(t *testing.T) {
	type problem struct {
		name string
		g    *taskgraph.Graph
		c    taskgraph.Constraint
		w    Workloads
	}
	var problems []problem
	for _, d := range []int64{6015, 5000} {
		g := sizedMP3(t, d, 3263, 883)
		problems = append(problems, problem{"mp3", g, mp3.Constraint(), mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 5))})
	}
	for seed := int64(1); seed <= 12; seed++ {
		cfg := graphgen.Defaults(seed)
		cfg.SourceConstrained = seed%3 == 0
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil || !res.Valid {
			continue
		}
		sized, err := capacity.Sized(g, res)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			// Undersize one buffer so some runs underrun.
			b := sized.Buffers()[0]
			b.Capacity = max(b.Capacity*2/3, 1)
		}
		problems = append(problems, problem{"graphgen", sized, c, UniformWorkloads(sized, seed)})
	}
	outcomes := map[Outcome]int{}
	for i, p := range problems {
		held, periodic := heldAndPeriodic(t, p.g, p.c, p.w, 400)
		hres, err := held.Run()
		if err != nil {
			t.Fatalf("%s #%d: %v", p.name, i, err)
		}
		tq := held.held.offsetT
		if tq == unreleased {
			t.Fatalf("%s #%d: constrained task never released (%v)", p.name, i, hres.Outcome)
		}
		if starts := hres.Starts[p.c.Task]; len(starts) > 0 && starts[0] != tq {
			t.Fatalf("%s #%d: first start at %d, released at %d", p.name, i, starts[0], tq)
		}
		for _, task := range p.g.Tasks() {
			if task.Name == p.c.Task {
				continue
			}
			// A firing of another task straddling T_q would have kept
			// its finish on the calendar.
			rho, err := held.Base().Ticks(task.WCRT)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range hres.Starts[task.Name] {
				if s < tq && s+rho > tq {
					t.Fatalf("%s #%d: %s fires over [%d, %d), across the release tick %d", p.name, i, task.Name, s, s+rho, tq)
				}
			}
		}
		if err := periodic.SetPeriodicOffsetTicks(p.c.Task, tq); err != nil {
			t.Fatal(err)
		}
		if _, err := periodic.ResetWarm(nil); err != nil {
			t.Fatal(err)
		}
		pres, err := periodic.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hres, pres) {
			t.Fatalf("%s #%d: held run differs from the periodic run at T_q = %d\nheld:     %+v\nperiodic: %+v", p.name, i, tq, hres, pres)
		}
		outcomes[hres.Outcome]++
	}
	if outcomes[Completed] == 0 || outcomes[Underrun] == 0 {
		t.Fatalf("outcomes %v: want both completed and underrun runs", outcomes)
	}
}

// TestQuiescentModeValidation pins the configuration rules of the mode.
func TestQuiescentModeValidation(t *testing.T) {
	g := pairGraph(t, 7)
	cfg, _, err := TaskGraphConfig(g, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 10}
	for _, tc := range []struct {
		actors map[string]ActorConfig
		want   string
	}{
		{map[string]ActorConfig{"wb": {Mode: PeriodicQuiescent, Offset: r(1, 1), Period: r(3, 1)}}, "resolves its own offset"},
		{map[string]ActorConfig{"wb": {Mode: PeriodicQuiescent}}, "positive period"},
		{map[string]ActorConfig{
			"wa": {Mode: PeriodicQuiescent, Period: r(3, 1)},
			"wb": {Mode: PeriodicQuiescent, Period: r(3, 1)},
		}, "at most one"},
	} {
		c := cfg
		c.Actors = tc.actors
		if _, err := Compile(c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("actors %v: error %v, want one containing %q", tc.actors, err, tc.want)
		}
	}
	cfg.Actors = map[string]ActorConfig{"wb": {Mode: PeriodicQuiescent, Period: r(3, 1)}}
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPeriodicOffsetTicks("wb", 5); err == nil {
		t.Error("SetPeriodicOffsetTicks accepted a held actor")
	}
}

// structuralPair is the Figure-1 pair constrained at its source with a
// consumer that consumes nothing: without the source firing, the consumer
// fires forever, so a held run never quiesces. The buffer holds every
// token 50 source firings make, so the constraint itself holds.
func structuralPair(t *testing.T) (*taskgraph.Graph, taskgraph.Constraint, Workloads) {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = 150
	return g, taskgraph.Constraint{Task: "wa", Period: r(3, 1)},
		Workloads{"wa->wb": {Cons: quanta.Constant(0)}}
}

// TestFeasibleFallsBackOnStructuralZero: a held run of a structural-zero
// graph would spin until MaxEvents, so the verifier must notice the zero
// and answer through Verify, which terminates.
func TestFeasibleFallsBackOnStructuralZero(t *testing.T) {
	g, c, w := structuralPair(t)
	cfg, _, err := TaskGraphConfig(g, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: c.Task, Firings: 50}
	cfg.MaxEvents = 10_000
	cfg.Actors = map[string]ActorConfig{c.Task: {Mode: PeriodicQuiescent, Period: c.Period}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != LimitExceeded {
		t.Fatalf("held run of a structural-zero pair ended %v; want limit-exceeded", res.Outcome)
	}

	vf, err := CompileVerifier(g, c, VerifyOptions{Firings: 50, Workloads: w, MaxEvents: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if vf.quiesces {
		t.Fatal("structural-zero pair classified as quiescing")
	}
	ok, err := vf.Feasible(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vf.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !v.OK {
		t.Fatalf("Feasible=%v, Verify OK=%v (%s); want both feasible", ok, v.OK, v.Reason)
	}

	// The same pair constrained at the sink has its zero on the
	// harmless side and quiesces.
	vf, err = CompileVerifier(g, taskgraph.Constraint{Task: "wb", Period: r(3, 1)}, VerifyOptions{Firings: 50, Workloads: w})
	if err != nil {
		t.Fatal(err)
	}
	if !vf.quiesces {
		t.Error("sink-constrained pair with a zero consumption classified as non-quiescing")
	}
}

// TestFeasibleLimitExceeded: a Feasible run cut short is an error wrapping
// ErrLimitExceeded, never an infeasible verdict.
func TestFeasibleLimitExceeded(t *testing.T) {
	g := pairGraph(t, 20)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	w := Workloads{"wa->wb": {Cons: quanta.Constant(3)}}
	vf, err := CompileVerifier(g, c, VerifyOptions{Firings: 200, Workloads: w, MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := vf.Feasible(nil)
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("Feasible = (%v, %v); want an ErrLimitExceeded error", ok, err)
	}
}

// TestVerifierInvariantBoundsFollowProbe is the regression test for buffer
// invariant bounds outliving the probe that set them: under Validate, a
// probe lowering one buffer used to leave its bound lowered for every later
// probe that kept the compiled capacity, so Verify(nil) after
// Verify({b: 3000}) on §5 MP3 aborted with "token sum 6015 exceeds 3000".
// The probes here lower the buffer to 1500, where the sizing fails.
func TestVerifierInvariantBoundsFollowProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 6015, 3263, 883)
	b := mp3.BufferNames()[0]
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:   2205,
		Workloads: mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 3)),
		Validate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		feasible bool // Feasible instead of Verify
		caps     map[string]int64
		want     bool
	}{
		{false, map[string]int64{b: 1500}, false},
		{false, nil, true},
		{true, map[string]int64{b: 1500}, false},
		{true, nil, true},
		{false, map[string]int64{b: 7000}, true},
		{true, map[string]int64{b: 1500}, false},
		{false, nil, true},
	} {
		var ok bool
		if step.feasible {
			ok, err = vf.Feasible(step.caps)
		} else {
			var v *Verification
			if v, err = vf.Verify(step.caps); err == nil {
				ok = v.OK
			}
		}
		if err != nil {
			t.Fatalf("step %d (Feasible=%v, caps %v): %v", i, step.feasible, step.caps, err)
		}
		if ok != step.want {
			t.Fatalf("step %d (Feasible=%v, caps %v): verdict %v, want %v", i, step.feasible, step.caps, ok, step.want)
		}
	}
}

// TestQuiescentWarmStartAcrossRelease: warm starts of a held run resume
// from checkpoints on both sides of the release — before it, where the
// offset is still unresolved, and after it, where the checkpoint carries
// T_q — and every run is bit-identical to a cold one. The 12,000-token
// buffer makes the held phase long enough (about 4,000 producer firings)
// to hold checkpoints of its own. A repeated capacity resumes from the
// newest checkpoint, after the release; a lowered one only from a
// checkpoint taken while the buffer was still filling, before it.
func TestQuiescentWarmStartAcrossRelease(t *testing.T) {
	g := pairGraph(t, 12000)
	cfg, _, err := TaskGraphConfig(g, Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 1000}
	cfg.RecordStarts = []string{"wa", "wb"}
	cfg.Actors = map[string]ActorConfig{"wb": {Mode: PeriodicQuiescent, Period: r(3, 1)}}
	cold, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoints = 8
	warm, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const space = "space:wa->wb"
	var beforeRelease, afterRelease int
	for i, c := range []int64{12000, 12000, 11990, 11990, 9000, 12000} {
		ov := map[string]int64{space: c}
		resumed, err := warm.ResetWarm(ov)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Reset(ov); err != nil {
			t.Fatal(err)
		}
		wres, err := warm.Run()
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cold.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wres, cres) {
			t.Fatalf("probe %d (capacity %d, resumed %d events): warm run diverged from cold\ncold: %v %d\nwarm: %v %d",
				i, c, resumed, cres.Outcome, cres.Events, wres.Outcome, wres.Events)
		}
		// The held phase is wa's firings before wb's first start, one
		// finish event each.
		released := int64(0)
		if starts := cres.Starts["wb"]; len(starts) > 0 {
			for _, s := range cres.Starts["wa"] {
				if s < starts[0] {
					released++
				}
			}
		}
		switch {
		case resumed == 0:
		case resumed < released:
			beforeRelease++
		default:
			afterRelease++
		}
	}
	if beforeRelease == 0 || afterRelease == 0 {
		t.Fatalf("warm starts resumed %d times before the release and %d after; want both", beforeRelease, afterRelease)
	}
}
