package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// legacyVerify is the offset loop Verify ran before it stopped at the first
// decided underrun: every fixed offset, then base + {0, 1, 10, 100}·τ, with
// the diagnostics of the last attempt. It is the slow-path oracle of
// FuzzVerifyOffsetInvariance and must not be "fixed" along with Verify.
func legacyVerify(vf *Verifier, caps map[string]int64) (*Verification, error) {
	periodicM, err := vf.machine(&vf.periodic, &vf.pcfg)
	if err != nil {
		return nil, err
	}
	ov, err := vf.overrides(caps)
	if err != nil {
		return nil, err
	}
	if err := vf.selfTimed.Reset(ov); err != nil {
		return nil, err
	}
	selfTimed, err := vf.selfTimed.Run()
	if err != nil {
		return nil, err
	}
	v := &Verification{SelfTimed: selfTimed}
	if selfTimed.Outcome != Completed {
		v.Reason = fmt.Sprintf("self-timed phase %s", selfTimed.Outcome)
		if selfTimed.Deadlock != nil {
			v.Reason += fmt.Sprintf(" at tick %d", selfTimed.Deadlock.Tick)
		}
		v.Underrun = selfTimed.Underrun
		v.Deadlock = selfTimed.Deadlock
		return v, nil
	}
	base := MaxLateness(selfTimed.Starts[vf.c.Task], vf.periodTicks)
	offsetTicks := append([]int64(nil), vf.fixedOffsets...)
	for _, slack := range []int64{0, 1, 10, 100} {
		offsetTicks = append(offsetTicks, base+slack*vf.periodTicks)
	}
	for _, ot := range offsetTicks {
		v.Attempts++
		v.OffsetTicks = ot
		v.Offset = vf.selfTimed.Base().Rat(ot)
		if err := periodicM.SetPeriodicOffsetTicks(vf.c.Task, ot); err != nil {
			return nil, err
		}
		if _, err := periodicM.ResetWarm(ov); err != nil {
			return nil, err
		}
		periodic, err := periodicM.Run()
		if err != nil {
			return nil, err
		}
		v.Periodic = periodic
		v.Underrun = periodic.Underrun
		v.Deadlock = periodic.Deadlock
		switch periodic.Outcome {
		case Completed:
			v.OK = true
			v.Reason = ""
			return v, nil
		case Underrun:
			v.Reason = periodic.Underrun.String()
		default:
			v.Reason = fmt.Sprintf("periodic phase %s", periodic.Outcome)
		}
	}
	return v, nil
}

// offsetFuzzShape selects the graph family of one FuzzVerifyOffsetInvariance
// input.
const (
	shapeGraphgen = iota
	shapeFigure1
	shapeMP3
	shapeStructural
	numShapes
)

// offsetFuzzProblem builds the graph, constraint and horizon of one fuzz
// input: a graphgen chain (sink- or source-constrained), the paper's
// Figure-1 pair, the §5 MP3 chain, or a structural-zero chain.
func offsetFuzzProblem(shape uint8, seed int64, source bool) (*taskgraph.Graph, taskgraph.Constraint, int64, error) {
	switch shape % numShapes {
	case shapeStructural:
		// A sink-constrained graphgen chain whose first buffer may
		// consume nothing (constrained at the sink, Eq. (4) sizes it).
		// With source set, the constraint moves to the source: the
		// consumer of the zero can then fire forever without it, the
		// structural zero of capacity.Curve, so Feasible must answer
		// through Verify rather than wait for a quiescence that never
		// comes.
		cfg := graphgen.Defaults(seed)
		cfg.ZeroConsumption = true
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			return nil, c, 0, err
		}
		b := g.Buffers()[0]
		if !b.Cons.ContainsZero() {
			b.Cons = taskgraph.MustQuanta(append([]int64{0}, b.Cons.Values()...)...)
		}
		return g, c, 300, nil
	case shapeFigure1:
		g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
			taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
		c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
		if source {
			c.Task = "wa"
		}
		return g, c, 300, err
	case shapeMP3:
		g, err := mp3.Graph()
		return g, mp3.Constraint(), 2205, err
	default:
		cfg := graphgen.Defaults(seed)
		cfg.SourceConstrained = source
		cfg.ZeroConsumption = !source && seed%5 == 0
		g, c, err := graphgen.Random(cfg)
		return g, c, 300, err
	}
}

// FuzzVerifyOffsetInvariance is the differential oracle of Verify's early
// exit and of Feasible. Past the dominating offset the periodic phase is a
// time shift of itself (DESIGN.md §8), so stopping at the first underrun
// there must not change any verdict: against the full four-offset loop
// (legacyVerify), on capacities drawn between the necessary bound α̌ and
// Equation (4), under uniform and adversarial workloads, with and without a
// fixed candidate offset, Verify must agree on OK. A failing pair must name
// the same actor, firing, edge and token counts, with start ticks that
// differ by exactly the offsets' difference; a passing pair, or one whose
// last legacy attempt was not an underrun, must match attempt for attempt.
//
// Feasible's single run from quiescence (DESIGN.md §9) must return Verify's
// OK on the same inputs, and hit the MaxEvents guard exactly when Verify
// does — including on structural-zero chains, where it has to fall back to
// Verify to terminate at all.
func FuzzVerifyOffsetInvariance(f *testing.F) {
	// §5 MP3 and the Figure-1 pair under every workload family, then
	// graphgen chains both ways round.
	for wl := uint8(0); wl < 4; wl++ {
		f.Add(uint8(shapeMP3), int64(1), int64(wl)+1, wl, false, wl%2 == 1)
		f.Add(uint8(shapeFigure1), int64(1), int64(wl)+3, wl, wl%2 == 0, wl%2 == 1)
	}
	f.Add(uint8(shapeGraphgen), int64(2), int64(9), uint8(0), false, false)
	f.Add(uint8(shapeGraphgen), int64(5), int64(3), uint8(1), true, true)
	f.Add(uint8(shapeGraphgen), int64(10), int64(0), uint8(2), false, true)
	f.Add(uint8(shapeGraphgen), int64(17), int64(4), uint8(3), true, false)
	f.Add(uint8(shapeStructural), int64(3), int64(2), uint8(0), true, false)
	f.Add(uint8(shapeStructural), int64(8), int64(1), uint8(3), true, true)
	f.Add(uint8(shapeStructural), int64(4), int64(3), uint8(1), false, false)
	f.Fuzz(func(t *testing.T, shape uint8, seed, capSeed int64, workload uint8, source, fixed bool) {
		g, c, firings, err := offsetFuzzProblem(shape, seed, source)
		if err != nil {
			t.Skip()
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil || !res.Valid {
			t.Skip()
		}
		sized, err := capacity.Sized(g, res)
		if err != nil {
			t.Skip()
		}
		eq4, necessary, err := capacity.SearchBounds(res, g)
		if err != nil {
			t.Skip()
		}
		if shape%numShapes == shapeStructural && source {
			tasks, _, err := sized.Chain()
			if err != nil {
				t.Fatal(err)
			}
			c.Task = tasks[0].Name
		}
		var w Workloads
		if adv := int(workload % 4); adv < len(Adversaries) {
			w = AdversarialWorkloads(sized, Adversaries[adv])
		} else {
			w = UniformWorkloads(sized, seed)
		}
		opts := VerifyOptions{Firings: firings, Workloads: w, LiteResult: true, MaxEvents: 2_000_000}
		if fixed {
			// Candidate offsets below the dominating one (0) and, for
			// long self-timed prologues, possibly above it.
			opts.Offsets = []ratio.Rat{r(0, 1), c.Period.MulInt(int64(len(sized.Tasks())))}
		}
		vf, err := CompileVerifier(sized, c, opts)
		if err != nil {
			t.Skip()
		}
		oracle, err := CompileVerifier(sized, c, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Capacities between α̌ and Equation (4): uniform, from the top
		// quarter of the range, or Equation (4) with one buffer lowered —
		// the last two keep chains past the self-timed deadlock often
		// enough for the periodic phase to decide.
		rnd := rand.New(rand.NewSource(capSeed ^ seed<<17))
		names := make([]string, 0, len(eq4))
		for _, b := range sized.Buffers() {
			names = append(names, b.DefaultName())
		}
		lowered := names[rnd.Intn(len(names))]
		caps := make(map[string]int64, len(names))
		for _, name := range names {
			hi := eq4[name]
			lo := max(necessary[name], 1)
			if hi < lo {
				hi = lo
			}
			switch capSeed & 3 {
			case 0:
				caps[name] = lo + rnd.Int63n(hi-lo+1)
			case 1:
				caps[name] = hi - rnd.Int63n((hi-lo)/4+1)
			default:
				caps[name] = hi
				if name == lowered {
					caps[name] = lo + rnd.Int63n(hi-lo+1)
				}
			}
		}

		got, gerr := vf.Verify(caps)
		want, werr := legacyVerify(oracle, caps)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("caps %v: Verify err %v, legacy err %v", caps, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if got.OK != want.OK {
			t.Fatalf("caps %v: Verify OK=%v (%s), legacy OK=%v (%s)", caps, got.OK, got.Reason, want.OK, want.Reason)
		}
		// Feasible runs on the verifier Verify just used, so the machine
		// switch and the invariant bounds are exercised too.
		ok, ferr := vf.Feasible(caps)
		limited := errors.Is(ferr, ErrLimitExceeded)
		if ferr != nil && !limited {
			t.Fatalf("caps %v: Feasible: %v", caps, ferr)
		}
		if wantLimited := !got.OK && got.LimitExceeded; limited != wantLimited {
			t.Fatalf("caps %v: Feasible limit-exceeded=%v (%v), Verify %v (%s)", caps, limited, ferr, wantLimited, got.Reason)
		}
		if !limited && ok != got.OK {
			t.Fatalf("caps %v (quiesces=%v): Feasible=%v, Verify OK=%v (%s)", caps, vf.quiesces, ok, got.OK, got.Reason)
		}
		if got.OK || want.Underrun == nil {
			if got.Attempts != want.Attempts || got.OffsetTicks != want.OffsetTicks || got.Reason != want.Reason {
				t.Fatalf("caps %v: undecided loop diverged: Verify %d attempts at %d (%s), legacy %d at %d (%s)",
					caps, got.Attempts, got.OffsetTicks, got.Reason, want.Attempts, want.OffsetTicks, want.Reason)
			}
			return
		}
		gu, wu := got.Underrun, want.Underrun
		if gu == nil {
			t.Fatalf("caps %v: Verify failed without underrun (%s); legacy underran: %v", caps, got.Reason, wu)
		}
		if gu.Actor != wu.Actor || gu.Firing != wu.Firing || gu.Edge != wu.Edge || gu.Have != wu.Have || gu.Need != wu.Need {
			t.Fatalf("caps %v: underrun differs:\nVerify (offset %d): %v\nlegacy (offset %d): %v",
				caps, got.OffsetTicks, gu, want.OffsetTicks, wu)
		}
		if dt, doff := wu.Tick-gu.Tick, want.OffsetTicks-got.OffsetTicks; dt != doff {
			t.Fatalf("caps %v: underrun ticks %d vs %d differ by %d, offsets by %d", caps, gu.Tick, wu.Tick, dt, doff)
		}
		if got.Attempts > want.Attempts {
			t.Fatalf("caps %v: Verify made %d attempts, legacy %d", caps, got.Attempts, want.Attempts)
		}
	})
}
