package main

import (
	"fmt"
	"strings"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Workload names, as passed to -workload.
const (
	minimizeCold = "minimize-cold"
	sweepCold    = "sweep-cold"
	warmMix      = "warm-mix"
)

var workloads = []string{minimizeCold, sweepCold, warmMix}

// Traffic parameters. They mirror what the service's callers send: a
// graphgen chain at the service's default horizon, the §5 MP3 chain over
// one 20 ms DAC-side window of firings, and sweeps capped at the server's
// default 64 periods.
const (
	chainFirings  = 1000
	mp3Firings    = 2205
	sweepPoints   = 64
	warmProblems  = 96 // above the 64-entry compiled-problem cache
	mp3PeriodDen  = 972405000
	mp3PeriodNum  = 22050 // 22050/972405000 = 1/44100
	mp3WindowBase = mp3PeriodNum - 2048
)

type endpoint int

const (
	epMinimize endpoint = iota
	epSweep
)

// request is one generated request plus what the checker needs to judge
// its response.
type request struct {
	Index    int
	Path     string // path and query
	Body     []byte
	Endpoint endpoint
	MP3      bool
	Firings  int64       // minimize
	Seed     int64       // minimize: the workload (VBR) seed
	Periods  []ratio.Rat // sweep, ascending
	Task     string      // sweep: the constrained task
	Problem  int         // warm-mix timed phase: primed problem index, else -1
}

// generator derives every request of a run from the workload seed alone:
// request i is a pure function of (workload, seed, i), so two runs with
// one seed send the same list, however many of its requests fit in the
// run.
type generator struct {
	workload string
	seed     int64
	mp3Doc   []byte
	mp3Con   taskgraph.Constraint
	primed   []request // warm-mix problems, primed during set-up
	mulA     uint64    // odd multiplier of the mp3 window permutation
	addB     uint64
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g, err := mp3.Graph()
	if err != nil {
		return nil, err
	}
	con := mp3.Constraint()
	gen := &generator{
		workload: workload,
		seed:     seed,
		mp3Doc:   graphio.EncodeText(g, &con),
		mp3Con:   con,
		mulA:     mix(seed, 0, saltWindow)<<1 | 1,
		addB:     mix(seed, 1, saltWindow),
	}
	switch workload {
	case minimizeCold, sweepCold:
	case warmMix:
		for p := 0; p < warmProblems; p++ {
			r, err := gen.minimizeRequest(p)
			if err != nil {
				return nil, err
			}
			gen.primed = append(gen.primed, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	return gen, nil
}

// Salts keep the per-purpose random streams of one seed independent.
const (
	saltGraph uint64 = iota + 1
	saltFresh
	saltWindow
	saltWarm
	saltSample
)

// mix hashes (seed, i, salt) with splitmix64's finaliser.
func mix(seed int64, i int, salt uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + salt*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fresh returns a workload seed unique to request i of this run.
func (g *generator) fresh(i int) int64 {
	return int64(mix(g.seed, 0, saltFresh)%(1<<30))<<24 | int64(i)
}

// request returns request i of the timed stream.
func (g *generator) request(i int) (request, error) {
	switch g.workload {
	case minimizeCold:
		return g.minimizeRequest(i)
	case sweepCold:
		return g.sweepRequest(i)
	default:
		return g.warmRequest(i), nil
	}
}

// minimizeRequest: three in four are a fresh graphgen chain (2–5 tasks),
// one in four the §5 chain with a fresh VBR seed.
func (g *generator) minimizeRequest(i int) (request, error) {
	r := request{Index: i, Endpoint: epMinimize, Seed: g.fresh(i), Problem: -1}
	if i%4 == 3 {
		r.MP3, r.Firings, r.Body = true, mp3Firings, g.mp3Doc
	} else {
		tg, con, err := graphgen.Random(graphgen.Defaults(int64(mix(g.seed, i, saltGraph) >> 1)))
		if err != nil {
			return r, err
		}
		r.Firings, r.Body = chainFirings, graphio.EncodeText(tg, &con)
	}
	r.Path = fmt.Sprintf("/v1/minimize?firings=%d&seed=%d", r.Firings, r.Seed)
	return r, nil
}

// sweepRequest: three in four are a fresh graphgen chain (2–20 tasks)
// swept over τ·32/64 … τ·95/64, across its feasibility edge; one in four
// is the §5 chain over a 64-period window (base + k·stride)/972405000 near
// 1/44100. (base, stride) comes from a bijection of the mp3 request's
// ordinal, so windows never repeat within 2^18 mp3 requests.
func (g *generator) sweepRequest(i int) (request, error) {
	r := request{Index: i, Endpoint: epSweep, Problem: -1}
	var names []string
	if i%4 == 3 {
		r.MP3, r.Body, r.Task = true, g.mp3Doc, g.mp3Con.Task
		p := (g.mulA*uint64(i/4) + g.addB) % (1 << 18)
		base, stride := int64(mp3WindowBase+p%4096), int64(1+p/4096)
		for k := int64(0); k < sweepPoints; k++ {
			r.Periods = append(r.Periods, ratio.MustNew(base+k*stride, mp3PeriodDen))
		}
	} else {
		cfg := graphgen.Defaults(int64(mix(g.seed, i, saltGraph) >> 1))
		cfg.MaxTasks = 20
		tg, con, err := graphgen.Random(cfg)
		if err != nil {
			return r, err
		}
		r.Task = con.Task
		for k := int64(0); k < sweepPoints; k++ {
			r.Periods = append(r.Periods, con.Period.Mul(ratio.MustNew(32+k, 64)))
		}
		// The header comment keeps two runs' rare identical chains from
		// turning into response-cache hits.
		r.Body = append([]byte(fmt.Sprintf("# sweep request %d\n", g.fresh(i))), graphio.EncodeText(tg, &con)...)
	}
	for _, p := range r.Periods {
		names = append(names, p.String())
	}
	r.Path = "/v1/sweep?periods=" + strings.Join(names, ",")
	return r, nil
}

// warmRequest alternates an exact repeat of a primed request (a
// response-cache hit while it stays cached) with a fresh textual variant
// of one: a unique comment line changes the raw key but not the problem
// fingerprint, so it is answered from the warm frontier.
func (g *generator) warmRequest(i int) request {
	p := int(mix(g.seed, i, saltWarm) % warmProblems)
	r := g.primed[p]
	r.Index, r.Problem = i, p
	if i%2 == 1 {
		r.Body = append([]byte(fmt.Sprintf("# variant %d\n", g.fresh(i))), r.Body...)
	}
	return r
}

// sampled reports whether request i gets the expensive post-run checks
// (simulation and in-process sweep cross-checks): one in sixteen,
// chosen by the seed.
func (g *generator) sampled(i int) bool {
	return mix(g.seed, i, saltSample)%16 == 0
}
