// Package faults injects deterministic, seeded timing faults into
// throughput verifications.
//
// The capacities of Wiggers et al. (DATE 2008) come with a guarantee that
// is conditional on the task model: every execution finishes within the
// worst-case response time ρ and every transfer quantum stays inside the
// declared set. This package probes both sides of that condition. Jitter
// shortens execution times within (0, ρ] — an admissible variation that a
// correct sizing must absorb for free (monotonicity, Definition 1).
// Overruns stretch selected firings beyond ρ — an inadmissible fault the
// guarantee says nothing about, whose impact is worth measuring: how much
// overrun does a sizing absorb before the periodic schedule first misses a
// start? The degradation sweep in this package answers that question as a
// curve over the overrun factor.
//
// All injected faults are pure functions of (seed, task, firing index), so
// a failing run replays bit-identically from its seed.
package faults

import (
	"fmt"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/splitmix"
	"vrdfcap/internal/taskgraph"
)

// Spec describes the timing faults to inject.
type Spec struct {
	// Jitter is the maximum fractional shortening of execution times,
	// in [0, 1): firing k of a task with worst-case response time ρ
	// executes in ρ·(1 − Jitter·u_k) with u_k drawn deterministically
	// from {0, 1/Resolution, …, (Resolution−1)/Resolution}. The zero
	// value disables jitter (every firing takes exactly ρ). Jittered
	// times always stay in (0, ρ], so jitter alone is admissible.
	Jitter ratio.Rat
	// Resolution is the number of quantisation steps for jitter
	// (default 8). Finer resolutions refine the time base: jittered
	// execution times are multiples of ρ·Jitter/Resolution.
	Resolution int64
	// Overrun, when set, must be ≥ 1: stalled firings execute in
	// ρ·Overrun instead of ρ. Values above 1 are inadmissible faults
	// and require the engine's overrun mode (Apply sets AllowOverrun).
	// The zero value disables overrun stalls.
	Overrun ratio.Rat
	// OverrunEvery is the stall cadence: every OverrunEvery-th firing
	// of an injected task overruns (firing indices k with
	// k ≡ OverrunEvery−1 mod OverrunEvery, so firing 0 never stalls).
	// Defaults to 7 when Overrun is set.
	OverrunEvery int64
	// Seed selects the jitter stream. Runs with equal (Seed, Spec) are
	// identical.
	Seed uint64
	// Tasks restricts injection to the named tasks; empty means every
	// task in the graph.
	Tasks []string
}

// Injector holds compiled per-task execution-time models for one graph and
// one Spec. Build with New, then Apply to a sim.VerifyOptions.
type Injector struct {
	exec    map[string]func(k int64) ratio.Rat
	extra   []ratio.Rat
	overrun bool
}

// New validates the spec against the graph and compiles the injector.
func New(tg *taskgraph.Graph, spec Spec) (*Injector, error) {
	one := ratio.FromInt(1)
	if spec.Jitter.Sign() < 0 || !spec.Jitter.Less(one) {
		return nil, fmt.Errorf("faults: jitter %v outside [0, 1)", spec.Jitter)
	}
	res := spec.Resolution
	if res == 0 {
		res = 8
	}
	if res < 0 {
		return nil, fmt.Errorf("faults: resolution %d must be positive", res)
	}
	overrun := !spec.Overrun.IsZero()
	if overrun && spec.Overrun.Less(one) {
		return nil, fmt.Errorf("faults: overrun factor %v below 1", spec.Overrun)
	}
	every := spec.OverrunEvery
	if every == 0 {
		every = 7
	}
	if every < 0 {
		return nil, fmt.Errorf("faults: overrun cadence %d must be positive", every)
	}

	tasks := spec.Tasks
	if len(tasks) == 0 {
		tasks = tg.SortedTaskNames()
	}
	inj := &Injector{exec: make(map[string]func(k int64) ratio.Rat, len(tasks))}
	jitter := spec.Jitter.Sign() > 0
	for _, name := range tasks {
		task := tg.Task(name)
		if task == nil {
			return nil, fmt.Errorf("faults: unknown task %q", name)
		}
		rho := task.WCRT
		if !jitter && !overrun {
			// Nothing to inject; leave the task on its default ρ.
			continue
		}
		// g is the jitter granularity: every jittered time is
		// ρ − u·g for an integer u, so listing g (and ρ·Overrun)
		// in the run's extra times makes all injected values
		// representable in the tick base.
		var g, stall ratio.Rat
		if jitter {
			g = rho.Mul(spec.Jitter).DivInt(res)
			inj.extra = append(inj.extra, g)
		}
		if overrun {
			stall = rho.Mul(spec.Overrun)
			inj.extra = append(inj.extra, stall)
		}
		salt := splitmix.Mix(spec.Seed ^ hashString(name))
		inj.exec[name] = func(k int64) ratio.Rat {
			if overrun && every > 0 && k%every == every-1 {
				return stall
			}
			if !jitter {
				return rho
			}
			u := int64(splitmix.Mix(salt^splitmix.Mix(uint64(k))) % uint64(res))
			return rho.Sub(g.MulInt(u))
		}
	}
	inj.overrun = overrun && len(inj.exec) > 0
	return inj, nil
}

// Overruns reports whether the injector stretches any firing beyond ρ.
func (inj *Injector) Overruns() bool { return inj.overrun }

// Apply wires the injector into a verification: per-task Exec models, the
// extra rational times they need, and — when the spec stalls firings beyond
// ρ — the engine's overrun mode.
func (inj *Injector) Apply(opts *sim.VerifyOptions) {
	if len(inj.exec) == 0 {
		return
	}
	if opts.Exec == nil {
		opts.Exec = make(map[string]func(k int64) ratio.Rat, len(inj.exec))
	}
	for name, fn := range inj.exec {
		opts.Exec[name] = fn
	}
	opts.ExtraTimes = append(opts.ExtraTimes, inj.extra...)
	if inj.overrun {
		opts.AllowOverrun = true
	}
}

// BurstyWorkloads builds the bursty adversarial workload for every buffer
// with variable quanta: lowLen firings at the set minimum followed by
// highLen at the maximum — the silence-then-peak shape that stresses
// sizing hardest. Buffers with constant quanta are left on their single
// value.
func BurstyWorkloads(tg *taskgraph.Graph, lowLen, highLen int64) sim.Workloads {
	w := make(sim.Workloads)
	for _, b := range tg.Buffers() {
		var wl sim.Workload
		if !b.Prod.IsConstant() {
			wl.Prod = quanta.Bursty(b.Prod, lowLen, highLen)
		}
		if !b.Cons.IsConstant() {
			wl.Cons = quanta.Bursty(b.Cons, lowLen, highLen)
		}
		w[b.DefaultName()] = wl
	}
	return w
}

// hashString folds a task name into the seed so distinct tasks draw
// independent jitter streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
