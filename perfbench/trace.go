package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/serve"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// Span names. serve.handler wraps Server.ServeHTTP; every other name is
// a named layer span around one public layer call of the replay.
const (
	spanHandler  = "serve.handler"
	spanDecode   = "graphio.decode"
	spanCompute  = "capacity.compute"
	spanBounds   = "capacity.bounds"
	spanCompile  = "capacity.compile"
	spanAt       = "capacity.at"
	spanGraphKey = "probecache.graphkey"
	spanSearch   = "minimize.search"
	spanCheck    = "sim.check"
)

// span is one timed call. Times are nanoseconds since the trace began;
// Parent is -1 for a root span.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory. A tracer that is off records nothing, so
// the same replay runs with spans on and off. Calls nest: a span begun
// while another is open becomes its child, which holds because the replay
// is serial (one request at a time, one search worker).
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeTotals are the search and simulation counters of the layered
// replay.
type probeTotals struct {
	checks     int64 // probes simulated
	cacheHits  int64 // probes answered by the frontier
	boundHits  int64 // probes decided by the α̂/α̌ bounds
	simEvents  int64
	resumed    int64
	warmResets int64
	coldResets int64
}

func (a probeTotals) minus(b probeTotals) probeTotals {
	return probeTotals{
		checks: a.checks - b.checks, cacheHits: a.cacheHits - b.cacheHits, boundHits: a.boundHits - b.boundHits,
		simEvents: a.simEvents - b.simEvents, resumed: a.resumed - b.resumed,
		warmResets: a.warmResets - b.warmResets, coldResets: a.coldResets - b.coldResets,
	}
}

// replayResult is what one in-process replay pass counted; the probe
// totals cover the timed phase only.
type replayResult struct {
	probeTotals
	wall         time.Duration
	requests     int
	hits         int
	mismatched   int      // misses whose layered replay differs from the handler's body
	mismatches   []string // the first few of them
	storeEntries int
}

// replay sends the first n requests of the stream, one at a time, through
// an in-process serve.Server on a recorder (span serve.handler), and every
// response-cache miss a second time through the layer functions the
// handler calls, in its order, against a store of its own (the named
// layer spans). Each side primes its own state as the HTTP run does. The
// layered bytes must equal the handler's, which pins the replay to what
// the handler does.
func replay(gen *generator, n int, tr *tracer) (*replayResult, error) {
	store := probecache.NewStore("")
	srv := serve.New(serve.Config{Store: store})
	defer srv.Close()
	lay := newLayered(tr)
	res := &replayResult{requests: n}

	on := tr.on
	tr.on = false // priming is set-up, not traced
	for _, p := range gen.primed {
		if body, status := handle(srv, p); status != http.StatusOK {
			return nil, fmt.Errorf("prime in process: status %d: %.200s", status, body)
		}
		if _, err := lay.run(p); err != nil {
			return nil, fmt.Errorf("prime layered: %w", err)
		}
	}
	tr.on = on
	base := lay.snapshot()

	start := time.Now()
	for i := 0; i < n; i++ {
		r, err := gen.request(i)
		if err != nil {
			return nil, err
		}
		tr.req = i
		before := srv.StatsSnapshot().CacheHits
		sp := tr.begin(spanHandler)
		body, status := handle(srv, r)
		tr.end(sp)
		if status != http.StatusOK {
			return nil, fmt.Errorf("in-process request %d: status %d: %.200s", i, status, body)
		}
		if srv.StatsSnapshot().CacheHits > before {
			res.hits++
			continue
		}
		got, err := lay.run(r)
		if err != nil {
			return nil, fmt.Errorf("layered request %d: %w", i, err)
		}
		if !bytes.Equal(got, body) {
			res.mismatched++
			if len(res.mismatches) < maxFailureNotes {
				res.mismatches = append(res.mismatches, fmt.Sprintf("request %d %.100s: layered replay answered %.120q, the handler %.120q", i, r.Path, got, body))
			}
		}
	}
	res.wall = time.Since(start)
	res.storeEntries = store.Stats().Entries
	res.probeTotals = lay.snapshot().minus(base)
	return res, nil
}

func handle(srv *serve.Server, r request) ([]byte, int) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
	return rec.Body.Bytes(), rec.Code
}

// Defaults vrdfserve runs with, which the layered replay reproduces.
const (
	serveCheckpoints  = 8
	serveProblemCache = 64
)

// layered is the replay's own copy of the handler's state: a verdict
// store, a compiled-problem LRU of the server's default size, and the
// probe counters.
type layered struct {
	tr       *tracer
	store    *probecache.Store
	problems *lru
	probes   minimize.ProbeStats
	searched probeTotals // checks, cache hits and bound hits of every Search
}

func newLayered(tr *tracer) *layered {
	return &layered{tr: tr, store: probecache.NewStore(""), problems: newLRU(serveProblemCache)}
}

func (l *layered) snapshot() probeTotals {
	t := l.searched
	t.simEvents, t.resumed = l.probes.SimEvents.Load(), l.probes.ResumedEvents.Load()
	t.warmResets, t.coldResets = l.probes.WarmResets.Load(), l.probes.ColdResets.Load()
	return t
}

func (l *layered) run(r request) ([]byte, error) {
	sp := l.tr.begin(spanDecode)
	g, con, err := graphio.DecodeAnyLimited(r.Body, graphio.DefaultLimits)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if con == nil {
		return nil, fmt.Errorf("document has no throughput constraint")
	}
	var v any
	if r.Endpoint == epSweep {
		v, err = l.sweep(g, con, r.Periods)
	} else {
		v, err = l.minimize(g, con, r.Firings, r.Seed)
	}
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	return append(body, '\n'), err
}

// problem is a compiled minimization problem, as the server caches it.
type problem struct {
	buffers  []string
	upper    map[string]int64
	check    minimize.CheckFunc
	bounds   *minimize.Bounds
	frontier *probecache.Frontier
}

func (l *layered) minimize(g *taskgraph.Graph, con *taskgraph.Constraint, firings, seed int64) (any, error) {
	sp := l.tr.begin(spanCompute)
	res, err := capacity.Compute(g, *con, capacity.PolicyEquation4)
	var sized *taskgraph.Graph
	if err == nil && res.Valid {
		sized, err = capacity.Sized(g, res)
	}
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !res.Valid {
		return nil, fmt.Errorf("chain is not valid at its period: %v", res.Diagnostics)
	}
	sp = l.tr.begin(spanGraphKey)
	fp := probecache.GraphKey(sized, "minimize-throughput",
		"task="+con.Task, "period="+con.Period.String(),
		fmt.Sprintf("firings=%d", firings),
		fmt.Sprintf("workload=uniform:seed=%d", seed),
		fmt.Sprintf("max-events=%d", 0))
	l.tr.end(sp)
	prob, ok := l.problems.get(fp)
	if !ok {
		prob = &problem{upper: make(map[string]int64)}
		for _, b := range sized.Buffers() {
			prob.buffers = append(prob.buffers, b.DefaultName())
			prob.upper[b.DefaultName()] = b.Capacity
		}
		if prob.frontier, err = l.store.Entry(fp).Frontier(prob.buffers); err != nil {
			return nil, err
		}
		sp = l.tr.begin(spanBounds)
		sufficient, necessary, err := capacity.SearchBounds(res, g)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		prob.bounds = &minimize.Bounds{Sufficient: sufficient, Necessary: necessary}
		check := minimize.ThroughputCheck(g, *con, firings,
			[]sim.Workloads{sim.UniformWorkloads(sized, seed)}, minimize.Options{
				Workers: 1, Checkpoints: serveCheckpoints, Stats: &l.probes,
			})
		prob.check = func(caps map[string]int64) (bool, error) {
			sp := l.tr.begin(spanCheck)
			defer l.tr.end(sp)
			return check(caps)
		}
		l.problems.put(fp, prob)
	}
	sp = l.tr.begin(spanSearch)
	mres, err := minimize.Search(prob.buffers, prob.upper, prob.check, minimize.Options{
		Workers: 1, Cache: prob.frontier, Bounds: prob.bounds, Stats: &l.probes,
	})
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.searched.checks += int64(mres.Checks)
	l.searched.cacheHits += int64(mres.CacheHits)
	l.searched.boundHits += int64(mres.BoundHits)
	out := minimizeResponse{Valid: true, Policy: policyName, Task: con.Task,
		Period: con.Period.String(), Firings: firings, Seed: seed}
	for _, name := range prob.buffers {
		out.Buffers = append(out.Buffers, minimizeBuffer{Name: name, Analytic: prob.upper[name], Minimal: mres.Caps[name]})
		out.AnalyticTotal += prob.upper[name]
		out.MinimalTotal += mres.Caps[name]
	}
	return out, nil
}

func (l *layered) sweep(g *taskgraph.Graph, con *taskgraph.Constraint, periods []ratio.Rat) (any, error) {
	policy := capacity.PolicyEquation4
	sp := l.tr.begin(spanCompute)
	_, err := capacity.Compute(g, *con, policy)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	canon := make([]byte, 0, 16*len(periods))
	for i, p := range periods {
		if i > 0 {
			canon = append(canon, ',')
		}
		canon = append(canon, p.String()...)
	}
	sp = l.tr.begin(spanGraphKey)
	_ = probecache.GraphKey(g, "serve-sweep", "task="+con.Task, "policy="+policy.String(), "periods="+string(canon))
	l.tr.end(sp)
	sp = l.tr.begin(spanGraphKey)
	key := capacity.SweepKey(g, con.Task, policy)
	l.tr.end(sp)
	cache := l.store.Entry(key).Periods()
	sp = l.tr.begin(spanCompile)
	a, err := capacity.CompileAnalysis(g, con.Task, policy)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := sweepResponse{Task: con.Task, Policy: policy.String()}
	for _, tau := range periods {
		sp = l.tr.begin(spanAt)
		res, err := a.At(tau)
		l.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("period %v: %w", tau, err)
		}
		cache.Insert(tau, probecache.Verdict{Valid: res.Valid, Total: res.TotalCapacity()})
		out.Points = append(out.Points, sweepPoint{Period: tau.String(), Valid: res.Valid, Total: res.TotalCapacity()})
	}
	return out, nil
}

// lru mirrors the server's compiled-problem cache: least recently used
// out first.
type lru struct {
	max     int
	entries map[string]*problem
	order   []string
}

func newLRU(max int) *lru { return &lru{max: max, entries: make(map[string]*problem)} }

func (c *lru) get(fp string) (*problem, bool) {
	p, ok := c.entries[fp]
	if ok {
		c.touch(fp)
	}
	return p, ok
}

func (c *lru) put(fp string, p *problem) {
	if len(c.order) >= c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[fp] = p
	c.order = append(c.order, fp)
}

func (c *lru) touch(fp string) {
	for i, k := range c.order {
		if k == fp {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = fp
			return
		}
	}
}
