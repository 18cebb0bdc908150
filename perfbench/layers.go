package main

import (
	"fmt"
	"io"
	"sort"

	"vrdfcap/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value, for the report
}

// spanSummary is the traced run's spans folded per request and per name.
type spanSummary struct {
	durs      map[string][]float64 // ns, one per span
	self      map[string]float64   // ns of self time, summed over the run
	graphKey  []float64            // ns per miss request: its GraphKey spans summed
	searchOwn []float64            // ns per minimize.search span, minus its sim.check children
	handler   []float64            // ns per request
	serveSelf []float64            // ns per request: handler minus its top-level layer spans
	// Handler and top-level layer time over the response-cache misses,
	// whose ratio is the share of the handler the named spans cover.
	missHandler, missLayers float64
}

func summarize(spans []span) *spanSummary {
	s := &spanSummary{durs: make(map[string][]float64), self: make(map[string]float64)}
	children := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] += spans[i].dur()
		}
	}
	type perReq struct {
		handler, layers, graphKey float64
		miss                      bool
	}
	reqs := make(map[int]*perReq)
	at := func(req int) *perReq {
		r, ok := reqs[req]
		if !ok {
			r = &perReq{}
			reqs[req] = r
		}
		return r
	}
	for i := range spans {
		sp := &spans[i]
		d := sp.dur()
		s.durs[sp.Name] = append(s.durs[sp.Name], d)
		r := at(sp.Req)
		switch {
		case sp.Name == spanHandler:
			r.handler += d
			continue
		case sp.Parent < 0:
			r.layers += d
			r.miss = true
		}
		s.self[sp.Name] += d - children[i]
		if sp.Name == spanGraphKey {
			r.graphKey += d
		}
		if sp.Name == spanSearch {
			s.searchOwn = append(s.searchOwn, d-children[i])
		}
	}
	ids := make([]int, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := reqs[id]
		s.handler = append(s.handler, r.handler)
		s.serveSelf = append(s.serveSelf, r.handler-r.layers)
		s.self["serve.self"] += r.handler - r.layers
		if r.miss {
			s.graphKey = append(s.graphKey, r.graphKey)
			s.missHandler += r.handler
			s.missLayers += r.layers
		}
	}
	return s
}

// layerMetrics derives the per-layer metrics from the traced replay, the
// spans-off replay and the untraced HTTP run.
func layerMetrics(s *spanSummary, on, off *replayResult, httpDelta serve.Stats, attempted int, latP50ms float64) map[string]metric {
	const us, ms = 1e3, 1e6 // ns per unit
	med := func(name string, per float64, unit string) metric {
		return metric{Value: median(s.durs[name]) / per, Unit: unit, N: len(s.durs[name])}
	}
	probes := float64(on.checks + on.cacheHits + on.boundHits)
	checkNS := sum(s.durs[spanCheck])
	m := map[string]metric{
		"graphio.decode_us":             med(spanDecode, us, "us"),
		"capacity.compute_us":           med(spanCompute, us, "us"),
		"capacity.bounds_us":            med(spanBounds, us, "us"),
		"capacity.compile_us":           med(spanCompile, us, "us"),
		"capacity.at_us":                med(spanAt, us, "us"),
		"probecache.graphkey_us":        {Value: median(s.graphKey) / us, Unit: "us", N: len(s.graphKey)},
		"probecache.frontier_hit_ratio": {Value: ratioOf(float64(on.cacheHits), probes), Unit: "ratio", N: int(probes)},
		"probecache.store_entries":      {Value: float64(on.storeEntries), Unit: "count", N: 1},
		"minimize.search_self_ms":       {Value: median(s.searchOwn) / ms, Unit: "ms", N: len(s.searchOwn)},
		"minimize.probes_sim":           {Value: float64(on.checks), Unit: "count", N: 1},
		"minimize.probes_cached":        {Value: float64(on.cacheHits), Unit: "count", N: 1},
		"minimize.probes_bound":         {Value: float64(on.boundHits), Unit: "count", N: 1},
		"minimize.unsimulated_share":    {Value: ratioOf(float64(on.cacheHits+on.boundHits), probes), Unit: "ratio", N: int(probes)},
		"sim.check_ms":                  med(spanCheck, ms, "ms"),
		"sim.events":                    {Value: float64(on.simEvents), Unit: "count", N: 1},
		"sim.resumed_events":            {Value: float64(on.resumed), Unit: "count", N: 1},
		"sim.warm_reset_ratio":          {Value: ratioOf(float64(on.warmResets), float64(on.warmResets+on.coldResets)), Unit: "ratio", N: int(on.warmResets + on.coldResets)},
		"sim.events_per_s":              {Value: ratioOf(float64(on.simEvents), checkNS/1e9), Unit: "1/s", N: len(s.durs[spanCheck])},
		"serve.handler_us":              {Value: median(s.handler) / us, Unit: "us", N: len(s.handler)},
		"serve.self_us":                 {Value: median(s.serveSelf) / us, Unit: "us", N: len(s.serveSelf)},
		"serve.resp_hit_ratio":          {Value: ratioOf(float64(httpDelta.CacheHits), float64(attempted)), Unit: "ratio", N: attempted},
		"serve.computes":                {Value: float64(httpDelta.Computes), Unit: "count", N: 1},
		"serve.coalesced":               {Value: float64(httpDelta.Coalesced), Unit: "count", N: 1},
		"serve.rejected":                {Value: float64(httpDelta.Rejected), Unit: "count", N: 1},
		"http.transport_us":             {Value: latP50ms*1e3 - median(s.handler)/us, Unit: "us", N: len(s.handler)},
		"trace.overhead_ratio":          {Value: ratioOf(float64(on.wall-off.wall), float64(off.wall)), Unit: "ratio", N: 1},
	}
	return m
}

// statsDelta is after minus before for the /statsz counters the report uses.
func statsDelta(before, after serve.Stats) serve.Stats {
	return serve.Stats{
		CacheHits: after.CacheHits - before.CacheHits,
		Coalesced: after.Coalesced - before.Coalesced,
		Computes:  after.Computes - before.Computes,
		Rejected:  after.Rejected - before.Rejected,
		Errors:    after.Errors - before.Errors,
		SimEvents: after.SimEvents - before.SimEvents,
	}
}

// predictions checks the benchmark's stated predictions against the
// traced run and reports each as confirmed or refuted; a refuted one is a
// finding, not a reason to reshape the workload.
func predictions(w io.Writer, workload string, s *spanSummary, m map[string]metric, latP50ms float64) {
	largest := func() (string, float64) {
		var name string
		var top, total float64
		for n, v := range s.self {
			total += v
			if v > top || (v == top && n < name) {
				name, top = n, v
			}
		}
		return name, ratioOf(top, total)
	}
	verdict := func(ok bool) string {
		if ok {
			return "CONFIRMED"
		}
		return "REFUTED"
	}
	switch workload {
	case minimizeCold:
		name, share := largest()
		fmt.Fprintf(w, "prediction: sim.check has the largest self time on %s: %s (largest is %s, %.1f%% of traced self time)\n",
			workload, verdict(name == spanCheck), name, 100*share)
	case sweepCold:
		name, share := largest()
		fmt.Fprintf(w, "prediction: capacity.at (per period × periods) has the largest self time on %s: %s (largest is %s, %.1f%% of traced self time)\n",
			workload, verdict(name == spanAt), name, 100*share)
	case warmMix:
		share := ratioOf(m["serve.self_us"].Value+m["http.transport_us"].Value, latP50ms*1e3)
		fmt.Fprintf(w, "prediction: serve + http dominate %s: %s (serve.self_us + http.transport_us = %.1f%% of latency_p50_ms)\n",
			workload, verdict(share > 0.5), 100*share)
	}
	if workload != minimizeCold {
		ev := m["sim.events"].Value
		fmt.Fprintf(w, "prediction: sim.events is 0 on the timed phase of %s: %s (%.0f events)\n", workload, verdict(ev == 0), ev)
	}
	cover := ratioOf(s.missLayers, s.missHandler)
	fmt.Fprintf(w, "coverage: named layer spans cover %.1f%% of serve.handler time on response-cache misses\n", 100*cover)
}
