package probecache

import (
	"sort"
	"sync"
	"sync/atomic"

	"vrdfcap/internal/ratio"
)

// Verdict is the cached outcome of one analytic period probe: whether the
// chain is schedulable at that period and, when it is relevant, the summed
// buffer capacity the policy selected.
type Verdict struct {
	Valid bool
	Total int64
}

// Periods caches period-feasibility verdicts for one (graph, constrained
// task, policy) triple — the axis capacity.SweepPeriods and
// MinimalFeasiblePeriod probe. Validity is monotone in the period: every
// per-task check compares a fixed response time against φ(w) = τ·const
// with a positive constant, so relaxing τ can only turn checks from
// failing to passing. LookupValid exploits that monotonicity; Lookup
// answers exact repeats only (the Total is period-specific and not
// monotone-derivable).
//
// No analysis reads or writes it: sweeps evaluate the closed form
// (capacity.Curve), which answers a period faster than a lookup. Stores
// still load and merge the period records of existing cache files, and
// perfbench's layered replay still records into it; the next benchmark
// change removes it.
//
// Safe for concurrent use.
type Periods struct {
	mu       sync.Mutex
	verdicts map[ratio.Rat]Verdict
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewPeriods returns an empty period-verdict cache.
func NewPeriods() *Periods {
	return &Periods{verdicts: make(map[ratio.Rat]Verdict)}
}

// Lookup returns the verdict recorded for exactly this period.
func (p *Periods) Lookup(period ratio.Rat) (Verdict, bool) {
	p.mu.Lock()
	v, ok := p.verdicts[period]
	p.mu.Unlock()
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return v, ok
}

// LookupValid answers a validity probe, using monotone dominance when the
// exact period is absent: a recorded valid verdict at a period ≤ this one
// proves validity, a recorded invalid verdict at a period ≥ this one
// proves invalidity. The second return is false when the cache cannot
// decide.
func (p *Periods) LookupValid(period ratio.Rat) (valid, hit bool) {
	p.mu.Lock()
	if v, ok := p.verdicts[period]; ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return v.Valid, true
	}
	for rec, v := range p.verdicts {
		if v.Valid && rec.LessEq(period) {
			p.mu.Unlock()
			p.hits.Add(1)
			return true, true
		}
		if !v.Valid && period.LessEq(rec) {
			p.mu.Unlock()
			p.hits.Add(1)
			return false, true
		}
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return false, false
}

// Probe answers one period probe with a single counter update: an exact
// verdict (with its Total) when recorded, otherwise a monotone-dominance
// validity answer (exact false, Total zero), otherwise a miss. Callers that
// issue one Probe per candidate period keep hits + misses equal to the
// number of probes — the invariant the separate Lookup-then-LookupValid
// sequence broke by double-counting a miss followed by a dominance hit.
func (p *Periods) Probe(period ratio.Rat) (v Verdict, exact, hit bool) {
	p.mu.Lock()
	if v, ok := p.verdicts[period]; ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return v, true, true
	}
	for rec, rv := range p.verdicts {
		if rv.Valid && rec.LessEq(period) {
			p.mu.Unlock()
			p.hits.Add(1)
			return Verdict{Valid: true}, false, true
		}
		if !rv.Valid && period.LessEq(rec) {
			p.mu.Unlock()
			p.hits.Add(1)
			return Verdict{Valid: false}, false, true
		}
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return Verdict{}, false, false
}

// Insert records a verdict. A repeat insert overwrites: the sweep always
// trusts the verdict it just computed over anything previously stored, so
// a stale or corrupted cached entry heals itself the next time its period
// is actually analysed.
func (p *Periods) Insert(period ratio.Rat, v Verdict) {
	p.mu.Lock()
	p.verdicts[period] = v
	p.mu.Unlock()
}

// Len returns the number of recorded verdicts.
func (p *Periods) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.verdicts)
}

// Counters returns the lookups answered from the cache (hits) and the
// lookups that had to analyse (misses).
func (p *Periods) Counters() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// periodRecord is the persisted form of one verdict.
type periodRecord struct {
	Num   int64 `json:"num"`
	Den   int64 `json:"den"`
	Valid bool  `json:"valid"`
	Total int64 `json:"total"`
}

func (p *Periods) snapshot() []periodRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]periodRecord, 0, len(p.verdicts))
	for rec, v := range p.verdicts {
		out = append(out, periodRecord{Num: rec.Num(), Den: rec.Den(), Valid: v.Valid, Total: v.Total})
	}
	// The snapshot feeds the persisted JSON; sort it (any total order will
	// do — lexicographic on the reduced components avoids cross-multiplying,
	// which could overflow) so the on-disk bytes do not depend on map
	// iteration order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Den != out[j].Den {
			return out[i].Den < out[j].Den
		}
		return out[i].Num < out[j].Num
	})
	return out
}

// absorb merges persisted verdicts; a record with a non-positive period is
// invalid and aborts the merge (the caller discards the snapshot).
func (p *Periods) absorb(records []periodRecord) error {
	for _, r := range records {
		period, err := ratio.New(r.Num, r.Den)
		if err != nil {
			return err
		}
		if period.Sign() <= 0 {
			return errNonPositivePeriod
		}
		p.Insert(period, Verdict{Valid: r.Valid, Total: r.Total})
	}
	return nil
}
