// Package bigref evaluates the buffer-capacity analysis of Wiggers et al.
// (DATE 2008), §4, in unbounded math/big rationals. It is the test oracle
// for the int64 analysis (capacity.Analysis.At) and its closed form in the
// period (capacity.Curve): it follows the paper step by step — φ
// propagation (§4.3/§4.4), the schedule checks, Equations (1)–(4) and the
// constant-rate baseline — and never overflows, so it decides the periods
// where the int64 paths report overflow.
package bigref

import (
	"fmt"
	"math/big"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Policy names follow capacity.Policy.String.
const (
	Equation4 = "equation4"
	Baseline  = "baseline"
	Hybrid    = "hybrid"
)

// Eval analyses chain g, constrained on task at period tau > 0, under the
// named policy, and returns whether every schedule check passes and the
// summed capacity. It fails on a malformed chain or constraint, on an
// unknown policy, and for the baseline on variable quanta.
func Eval(g *taskgraph.Graph, task, policy string, tau *big.Rat) (valid bool, total *big.Int, err error) {
	if tau.Sign() <= 0 {
		return false, nil, fmt.Errorf("bigref: period must be positive, got %v", tau)
	}
	tasks, buffers, err := g.Chain()
	if err != nil {
		return false, nil, err
	}
	sink := task == tasks[len(tasks)-1].Name
	if !sink && task != tasks[0].Name {
		return false, nil, fmt.Errorf("bigref: task %q is neither source nor sink", task)
	}
	valid = true
	phi := make(map[string]*big.Rat, len(tasks))
	mu := make([]*big.Rat, len(buffers))
	if sink {
		phi[task] = tau
		for i := len(buffers) - 1; i >= 0; i-- {
			b := buffers[i]
			mu[i] = new(big.Rat).Quo(phi[b.Consumer], big.NewRat(b.Cons.Max(), 1))
			phi[b.Producer] = mu[i]
			if m := b.Prod.Min(); m == 0 {
				valid = false
			} else {
				phi[b.Producer] = new(big.Rat).Mul(mu[i], big.NewRat(m, 1))
			}
		}
	} else {
		phi[task] = tau
		for i, b := range buffers {
			mu[i] = new(big.Rat).Quo(phi[b.Producer], big.NewRat(b.Prod.Max(), 1))
			phi[b.Consumer] = mu[i]
			if m := b.Cons.Min(); m == 0 {
				valid = false
			} else {
				phi[b.Consumer] = new(big.Rat).Mul(mu[i], big.NewRat(m, 1))
			}
		}
	}
	for _, w := range tasks {
		if rat(w.WCRT).Cmp(phi[w.Name]) > 0 {
			valid = false
		}
	}
	total = new(big.Int)
	for i, b := range buffers {
		rhoP, rhoC := rat(g.Task(b.Producer).WCRT), rat(g.Task(b.Consumer).WCRT)
		p, c := b.Prod.Max(), b.Cons.Max()
		// Equations (1)–(3): the producer and consumer gaps and their sum.
		pg := new(big.Rat).Add(rhoP, new(big.Rat).Mul(mu[i], big.NewRat(p-1, 1)))
		cg := new(big.Rat).Add(rhoC, new(big.Rat).Mul(mu[i], big.NewRat(c-1, 1)))
		gap := new(big.Rat).Add(pg, cg)
		// Equation (4): ⌊gap/μ + 1⌋.
		eq4 := floor(new(big.Rat).Add(new(big.Rat).Quo(gap, mu[i]), big.NewRat(1, 1)))
		constant := b.Prod.IsConstant() && b.Cons.IsConstant()
		var base *big.Int
		if constant {
			gcd := new(big.Int).GCD(nil, nil, big.NewInt(p), big.NewInt(c))
			resp := new(big.Rat).Quo(new(big.Rat).Add(rhoP, rhoC), mu[i])
			units := ceil(new(big.Rat).Quo(resp, new(big.Rat).SetInt(gcd)))
			base = new(big.Int).Mul(units, gcd)
			base.Add(base, big.NewInt(p+c))
			base.Sub(base, new(big.Int).Lsh(gcd, 1))
		}
		capacity := eq4
		switch policy {
		case Equation4:
		case Baseline:
			if !constant {
				return false, nil, fmt.Errorf("bigref: buffer %s has variable quanta", b.DefaultName())
			}
			capacity = base
		case Hybrid:
			if constant && base.Cmp(eq4) < 0 {
				capacity = base
			}
		default:
			return false, nil, fmt.Errorf("bigref: unknown policy %q", policy)
		}
		total.Add(total, capacity)
	}
	return valid, total, nil
}

func rat(r ratio.Rat) *big.Rat { return big.NewRat(r.Num(), r.Den()) }

// floor and ceil round a rational; big.Int's Euclidean division floors for
// the positive denominators big.Rat keeps.
func floor(r *big.Rat) *big.Int { return new(big.Int).Div(r.Num(), r.Denom()) }

func ceil(r *big.Rat) *big.Int {
	q, m := new(big.Int).DivMod(r.Num(), r.Denom(), new(big.Int))
	if m.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q
}
