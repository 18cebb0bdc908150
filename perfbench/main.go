// Command perfbench is vrdfcap's service benchmark. It drives a real
// vrdfserve process over loopback HTTP with a closed loop of two clients,
// checks every response, and reports end-to-end metrics; with -trace 1 it
// also replays the workload in process with spans around every layer call
// and reports per-layer metrics. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload minimize-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vrdfcap/internal/serve"
)

// setupRounds is how many times a run sets the server up; setup_s is the
// median, and the last server serves the timed phase.
const setupRounds = 5

// maxDeepChecks caps the sampled simulation and in-process sweep checks
// per run, so their cost stays bounded however fast the server gets.
const maxDeepChecks = 64

// reportOnly names the end-to-end metrics that the report prints and the
// result file keeps but the JSON line leaves out, so no change is judged by
// them. A minimize-cold p99 rests on its slowest 1% of graphgen chains,
// about 60 requests of a 30 s run: which chains a seed draws moves it by
// 6–8% (bootstrap standard deviation) on top of the machine's run-to-run
// drift, too much for a bound of 25%. latency_p95_ms is the judged tail.
var reportOnly = map[string]bool{"latency_p99_ms": true}

// replayRequests is how many requests of the stream the traced run
// replays per workload: enough for stable per-request medians, few enough
// that both replay passes (spans off and on) stay well inside a run.
var replayRequests = map[string]int{minimizeCold: 200, sweepCold: 1000, warmMix: 3000}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload, server, out string
	seed                  int64
	seconds               int
	trace                 bool
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; one seed always generates the same requests")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
	fs.StringVar(&c.server, "server", "", "vrdfserve binary built from the tree under test")
	fs.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for span and result files")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.server == "":
		return c, fmt.Errorf("-server is required")
	case c.seconds < 1:
		return c, fmt.Errorf("-seconds must be positive")
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

// result is everything a run reports; the result file holds all of it.
type result struct {
	Provenance map[string]string `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

func run(args []string, w io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	gen, err := newGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	res, delta, err := measure(cfg, gen, w)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := traced(cfg, gen, res, delta, w); err != nil {
			return err
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILURE:", f)
	}
	keys := make([]string, 0, len(res.Provenance))
	for k := range res.Provenance {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "provenance %s: %s\n", k, res.Provenance[k])
	}
	resultPath := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, append(data, '\n'), 0o644); err != nil {
		return err
	}

	metrics := judged(res.EndToEnd)
	if cfg.trace {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUp starts the server setupRounds times, priming it on warm-mix, and
// returns the last one with its clients, the checker and each set-up's
// duration. Set-ups that prime different bytes are reported as failures.
func setUp(cfg config, gen *generator) (srv *server, cs []*client, chk *checker, setups []float64, failures []string, err error) {
	chk = &checker{}
	for k := 0; k < setupRounds; k++ {
		closeClients(cs)
		srv.stop()
		t0 := time.Now()
		if srv, err = startServer(cfg.server); err != nil {
			return nil, nil, nil, nil, nil, err
		}
		cs = newClients(srv.base)
		if gen.workload == warmMix {
			bodies, err := prime(cs, gen)
			if err != nil {
				closeClients(cs)
				srv.stop()
				return nil, nil, nil, nil, nil, err
			}
			for p, b := range bodies {
				if chk.primed != nil && !bytes.Equal(chk.primed[p], b) {
					failures = append(failures, fmt.Sprintf("problem %d: set-up %d primed different bytes than set-up %d", p, k, k-1))
				}
			}
			chk.primed = bodies
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return srv, cs, chk, setups, failures, nil
}

// measure sets up, runs the timed phase against the server, stops it, and
// runs the deep checks. It returns the result with its end-to-end metrics
// and the server's /statsz deltas over the timed phase.
func measure(cfg config, gen *generator, w io.Writer) (*result, serve.Stats, error) {
	var delta serve.Stats
	srv, cs, chk, setups, failures, err := setUp(cfg, gen)
	if err != nil {
		return nil, delta, err
	}
	defer func() {
		closeClients(cs)
		srv.stop()
	}()
	before, err := srv.stats()
	if err != nil {
		return nil, delta, err
	}
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return nil, delta, err
	}
	self0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, delta, err
	}
	lr, err := drive(cs, 0, time.Duration(cfg.seconds)*time.Second, gen.request, chk, gen.sampled)
	if err != nil {
		return nil, delta, err
	}
	cpu1, err := cpuTime(srv.pid())
	if err != nil {
		return nil, delta, err
	}
	self1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, delta, err
	}
	after, err := srv.stats()
	if err != nil {
		return nil, delta, err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, delta, err
	}
	delta = statsDelta(before, after)
	prov := provenance(cfg, srv, lr)
	// The server has served its purpose; free its memory before the
	// in-process checks and replay.
	closeClients(cs)
	srv.stop()

	// Sampled deep checks; warm-mix deep-checks its primed problems, which
	// every timed response must equal byte for byte.
	deep := lr.samples
	if gen.workload == warmMix {
		deep = nil
		for p, r := range gen.primed {
			if gen.sampled(p) {
				deep = append(deep, sample{req: r, body: chk.primed[p]})
			}
		}
	}
	if len(deep) > maxDeepChecks {
		deep = deep[:maxDeepChecks]
	}
	correct := len(failures) == 0
	failures = append(failures, lr.failures...)
	failed := lr.failed
	for _, s := range deep {
		if err := deepCheck(s.req, s.body); err != nil {
			failed++
			if len(failures) < 2*maxFailureNotes {
				failures = append(failures, fmt.Sprintf("deep check of request %d %.100s: %v", s.req.Index, s.req.Path, err))
			}
		}
	}

	res := &result{Provenance: prov, Correct: correct && failed == 0, Attempted: lr.attempted, Failed: failed, Failures: failures}
	if res.EndToEnd, err = endToEnd(lr, setups, cpu1-cpu0, rss); err != nil {
		return nil, delta, err
	}
	res.Provenance["deep_checks"] = fmt.Sprint(len(deep))
	fmt.Fprintf(w, "perfbench %s seed=%d: %d attempted, %d completed, %d failed (error_rate %.4g) in %.2fs\n",
		cfg.workload, cfg.seed, lr.attempted, lr.completed(), failed, ratioOf(float64(failed), float64(lr.attempted)), lr.wall.Seconds())
	fmt.Fprintf(w, "load generator (client, checks included) CPU: %.4g ms per request\n",
		float64(self1-self0)/float64(time.Millisecond)/float64(max(lr.attempted, 1)))
	fmt.Fprintf(w, "server /statsz over the timed phase: hits+%d computes+%d coalesced+%d rejected+%d errors+%d sim_events+%d\n",
		delta.CacheHits, delta.Computes, delta.Coalesced, delta.Rejected, delta.Errors, delta.SimEvents)
	printMetrics(w, "end-to-end", res.EndToEnd)
	return res, delta, nil
}

// traced runs the in-process replay with spans off, on and off, writes the
// spans, and adds the per-layer metrics and the predictions to the report.
// The two off passes bracket the traced one, so a first-pass warm-up does
// not read as negative overhead.
func traced(cfg config, gen *generator, res *result, delta serve.Stats, w io.Writer) error {
	n := replayRequests[cfg.workload]
	off, err := replay(gen, n, newTracer(false))
	if err != nil {
		return err
	}
	tr := newTracer(true)
	on, err := replay(gen, n, tr)
	if err != nil {
		return err
	}
	off2, err := replay(gen, n, newTracer(false))
	if err != nil {
		return err
	}
	off.wall = (off.wall + off2.wall) / 2
	spansPath := filepath.Join(cfg.out, "spans-"+cfg.workload+".jsonl")
	if err := tr.writeJSONL(spansPath); err != nil {
		return err
	}
	summary := summarize(tr.spans)
	p50 := res.EndToEnd["latency_p50_ms"].Value
	res.PerLayer = layerMetrics(summary, on, off, delta, res.Attempted, p50)
	fmt.Fprintf(w, "traced replay: %d requests (%d response-cache hits), wall %.3fs with spans on, %.3fs off (mean of two passes; overhead %+.1f%%); %d spans in %s\n",
		on.requests, on.hits, on.wall.Seconds(), off.wall.Seconds(), 100*res.PerLayer["trace.overhead_ratio"].Value, len(tr.spans), spansPath)
	printMetrics(w, "per-layer", res.PerLayer)
	predictions(w, cfg.workload, summary, res.PerLayer, p50)
	for _, rr := range []*replayResult{off, on, off2} {
		if rr.mismatched > 0 {
			res.Correct = false
			res.Failures = append(res.Failures, rr.mismatches...)
		}
	}
	res.Provenance["replayed_requests"] = fmt.Sprint(n)
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// prime sends the warm-mix problems cold, checks them, and returns each
// problem's response body.
func prime(cs []*client, gen *generator) ([][]byte, error) {
	lr, err := drive(cs, len(gen.primed), 0, func(i int) (request, error) { return gen.primed[i], nil },
		&checker{}, func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	if lr.failed > 0 {
		return nil, fmt.Errorf("priming: %d of %d requests failed: %s", lr.failed, lr.attempted, strings.Join(lr.failures, "; "))
	}
	bodies := make([][]byte, len(gen.primed))
	for _, s := range lr.samples {
		bodies[s.req.Index] = s.body
	}
	return bodies, nil
}

// endToEnd computes the end-to-end metrics of the timed phase.
func endToEnd(lr *loadResult, setups []float64, cpu time.Duration, rssMB float64) (map[string]metric, error) {
	n := lr.completed()
	if n == 0 {
		return nil, fmt.Errorf("no request completed (%d attempted): %s", lr.attempted, strings.Join(lr.failures, "; "))
	}
	p50, err := percentile(lr.latMS, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(lr.latMS, 0.95)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(lr.latMS, 0.99)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"throughput_rps":        {Value: float64(n) / lr.wall.Seconds(), Unit: "req/s", N: n},
		"latency_p50_ms":        {Value: p50, Unit: "ms", N: n},
		"latency_p95_ms":        {Value: p95, Unit: "ms", N: n},
		"latency_p99_ms":        {Value: p99, Unit: "ms", N: n},
		"setup_s":               {Value: median(setups), Unit: "s", N: len(setups)},
		"server_cpu_ms_per_req": {Value: float64(cpu) / float64(time.Millisecond) / float64(n), Unit: "ms", N: n},
		"server_rss_mb":         {Value: rssMB, Unit: "MB", N: 1},
	}, nil
}

// judged returns the end-to-end metrics the JSON line carries: all but
// the reportOnly ones.
func judged(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		if !reportOnly[k] {
			out[k] = v
		}
	}
	return out
}

func printMetrics(w io.Writer, kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		fmt.Fprintf(w, "%-10s %-30s %14.6g %-6s n=%d\n", kind, k, v.Value, v.Unit, v.N)
	}
}

// provenance stamps a result with what produced it.
func provenance(cfg config, srv *server, lr *loadResult) map[string]string {
	p := map[string]string{
		"workload":             cfg.workload,
		"seed":                 fmt.Sprint(cfg.seed),
		"seconds":              fmt.Sprint(cfg.seconds),
		"commit":               commit(),
		"tree_sha256":          treeDigest(),
		"go_version":           runtime.Version(),
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs_bench":     fmt.Sprint(runtime.GOMAXPROCS(0)),
		"gomaxprocs_vrdfserve": serverGOMAXPROCS(srv.pid()),
		"vrdfserve_flags":      strings.Join(serverFlags, " "),
		"clients":              fmt.Sprintf("%d closed-loop clients, one keep-alive connection each", clients),
		"attempted":            fmt.Sprint(lr.attempted),
		"completed":            fmt.Sprint(lr.completed()),
	}
	if bi, err := buildinfo.ReadFile(cfg.server); err == nil {
		p["go_version_vrdfserve"] = bi.GoVersion
	}
	return p
}

// commit is the checkout's git commit, when it is a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes every Go source and go.mod under the working
// directory, so a result names the code it measured even without git.
func treeDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
