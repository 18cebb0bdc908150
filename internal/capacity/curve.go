package capacity

import (
	"vrdfcap/internal/ratio"
)

// Curve is an Analysis compiled in the period. Under §4.3/§4.4 the
// constrained period τ enters the analysis only linearly: every minimal
// start distance is φ(w) = c_w·τ and every bound rate is μ_e = m_e·τ, with
// c_w and m_e fixed by the quanta alone. Equation (4) then collapses per
// buffer to
//
//	d_e(τ) = ⌊Q_e/τ⌋ + π̂_e + γ̂_e − 1,   Q_e = (ρ_prod + ρ_cons)/m_e,
//
// the constant-rate baseline to ⌈Q_e/(g_e·τ)⌉·g_e + π̂_e + γ̂_e − 2g_e with
// g_e = gcd(π̂_e, γ̂_e), and every schedule check ρ(w) ≤ c_w·τ to the single
// threshold τ ≥ P* = max_w ρ(w)/c_w. A zero quantum on the propagation side
// makes every period infeasible (the structural verdict). DESIGN.md §7
// derives the forms.
//
// Eval answers one period with O(buffers) overflow-checked integer work and
// no allocation; it agrees exactly with Analysis.At wherever At returns,
// and its 128-bit quotients answer many periods whose step-by-step int64
// evaluation in At overflows. A Curve is immutable and safe for concurrent
// use.
type Curve struct {
	a       *Analysis
	buffers []curveBuffer
	// threshold is P*: the schedule checks pass iff τ ≥ P*.
	threshold ratio.Rat
	// structural is false when a zero quantum on the propagation side
	// makes every period infeasible.
	structural bool
	// err is the error At reports at every positive period (a policy the
	// chain does not admit), or nil.
	err error
	// wide marks a chain whose coefficients do not fit int64 rationals;
	// Eval then defers to Analysis.At.
	wide bool
}

// curveBuffer holds one buffer's closed-form coefficients.
type curveBuffer struct {
	q ratio.Rat // Q_e: the Equation (4) response-time term is ⌊Q_e/τ⌋
	k int64     // π̂_e + γ̂_e − 1
	// The baseline form, present when both quanta sets are singletons.
	constRate bool
	qg        ratio.Rat // Q_e/g_e: the baseline term is ⌈Q_e/(g_e·τ)⌉·g_e
	g         int64     // gcd(π̂_e, γ̂_e)
	kBase     int64     // π̂_e + γ̂_e − 2g_e
}

// Curve compiles the analysis in the period. The coefficients are derived
// directly from the chain, not by evaluating At at a reference period.
func (a *Analysis) Curve() *Curve {
	c := &Curve{a: a, structural: true}
	for _, b := range a.buffers {
		if c.err = policyError(b, a.policy); c.err != nil {
			break
		}
	}
	if !c.compile() {
		c.wide, c.buffers = true, nil
	}
	return c
}

// compile derives the threshold and per-buffer coefficients; it reports
// false when one of them overflows int64.
func (c *Curve) compile() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			_ = overflowFrom(ratio.One, r) // re-raises anything but overflow
			ok = false
		}
	}()
	a := c.a
	n := len(a.tasks)
	scale := make([]ratio.Rat, n)             // φ(tasks[i]) = scale[i]·τ
	rate := make([]ratio.Rat, len(a.buffers)) // μ(buffers[i]) = rate[i]·τ
	// The same propagation as propagatePhi, at τ = 1; a zero quantum
	// keeps its positive placeholder φ = μ.
	if a.direction == SinkConstrained {
		scale[n-1] = ratio.One
		for i := len(a.buffers) - 1; i >= 0; i-- {
			b := a.buffers[i]
			rate[i] = scale[i+1].DivInt(b.Cons.Max())
			scale[i] = rate[i]
			if m := b.Prod.Min(); m == 0 {
				c.structural = false
			} else {
				scale[i] = rate[i].MulInt(m)
			}
		}
	} else {
		scale[0] = ratio.One
		for i, b := range a.buffers {
			rate[i] = scale[i].DivInt(b.Prod.Max())
			scale[i+1] = rate[i]
			if m := b.Cons.Min(); m == 0 {
				c.structural = false
			} else {
				scale[i+1] = rate[i].MulInt(m)
			}
		}
	}
	for i, w := range a.tasks {
		if p := w.WCRT.Div(scale[i]); i == 0 || c.threshold.Less(p) {
			c.threshold = p
		}
	}
	c.buffers = make([]curveBuffer, len(a.buffers))
	for i, b := range a.buffers {
		pMax, cMax := b.Prod.Max(), b.Cons.Max()
		cb := &c.buffers[i]
		cb.q = a.prod[i].WCRT.Add(a.cons[i].WCRT).Div(rate[i])
		cb.k = checkedAdd(pMax, cMax) - 1
		if b.Prod.IsConstant() && b.Cons.IsConstant() {
			cb.constRate = true
			cb.g = ratio.GCD(pMax, cMax)
			cb.qg = cb.q.DivInt(cb.g)
			cb.kBase = checkedAdd(pMax, cMax) - 2*cb.g
		}
	}
	return true
}

// Eval evaluates the curve at period tau: whether every schedule check
// passes, and the summed capacity under the analysis' policy. The values
// equal At(tau).Valid and At(tau).TotalCapacity(), and a non-positive
// period or an inadmissible policy yields At's error text. A capacity or
// total beyond int64 yields an *OverflowError.
//
//vrdf:noalloc
func (c *Curve) Eval(tau ratio.Rat) (valid bool, total int64, err error) {
	if tau.Sign() <= 0 {
		return false, 0, periodError(tau) //vrdf:allocok(error path: builds At's error text for a non-positive period)
	}
	if c.err != nil {
		return false, 0, c.err
	}
	if c.wide {
		return c.evalAt(tau)
	}
	policy := c.a.policy
	for i := range c.buffers {
		b := &c.buffers[i]
		var capacity int64
		ok := true
		if policy != PolicyBaseline {
			capacity, ok = b.eq4(tau)
		}
		if ok && b.constRate && policy != PolicyEquation4 {
			base, okBase := b.baseline(tau)
			switch {
			case !okBase:
				ok = false
			case policy == PolicyBaseline || base < capacity:
				capacity = base
			}
		}
		if ok {
			total, ok = ratio.CheckedAdd(total, capacity)
		}
		if !ok {
			return false, 0, curveOverflow(tau) //vrdf:allocok(error path: the typed overflow error)
		}
	}
	return c.structural && !tau.Less(c.threshold), total, nil
}

// eq4 is ⌊Q_e/τ⌋ + π̂_e + γ̂_e − 1.
func (b *curveBuffer) eq4(tau ratio.Rat) (int64, bool) {
	q, _, ok := b.q.FloorDiv(tau)
	if !ok {
		return 0, false
	}
	return ratio.CheckedAdd(q, b.k)
}

// baseline is ⌈Q_e/(g_e·τ)⌉·g_e + π̂_e + γ̂_e − 2g_e.
func (b *curveBuffer) baseline(tau ratio.Rat) (int64, bool) {
	units, exact, ok := b.qg.FloorDiv(tau)
	if ok && !exact {
		units, ok = ratio.CheckedAdd(units, 1)
	}
	if !ok {
		return 0, false
	}
	v, ok := ratio.CheckedMul(units, b.g)
	if !ok {
		return 0, false
	}
	return ratio.CheckedAdd(v, b.kBase)
}

// evalAt is Eval on a wide chain: the full analysis, whose exact int64
// evaluation either answers or reports the overflow.
func (c *Curve) evalAt(tau ratio.Rat) (bool, int64, error) {
	res, err := c.a.At(tau)
	if err != nil {
		return false, 0, err
	}
	return res.Valid, res.TotalCapacity(), nil
}

// curveOverflow is the error Eval reports when a capacity or the total
// exceeds int64.
func curveOverflow(tau ratio.Rat) error {
	return &OverflowError{Period: tau, Err: &ratio.OverflowError{Op: "capacity curve"}}
}

// Feasible reports whether every schedule check passes at tau — the
// validity Eval reports — without evaluating capacities. A non-positive
// period is infeasible. Only a wide chain can fail, with At's error.
func (c *Curve) Feasible(tau ratio.Rat) (bool, error) {
	if tau.Sign() <= 0 {
		return false, nil
	}
	if c.wide {
		res, err := c.a.At(tau)
		if err != nil {
			return false, err
		}
		return res.Valid, nil
	}
	return c.structural && !tau.Less(c.threshold), nil
}

// Threshold returns P*, the smallest period that passes every schedule
// check. ok is false when no period does (a structural zero quantum) or
// when the chain's coefficients exceed int64 rationals.
func (c *Curve) Threshold() (p ratio.Rat, ok bool) {
	return c.threshold, c.structural && !c.wide
}

// Err returns the error Eval reports at every positive period — a policy
// the chain does not admit, such as the baseline on variable quanta — or
// nil.
func (c *Curve) Err() error { return c.err }
