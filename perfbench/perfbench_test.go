package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"vrdfcap/internal/probecache"
	"vrdfcap/internal/serve"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newGenerator(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newGenerator(w, 7)
		c, _ := newGenerator(w, 8)
		seen := make(map[string]bool)
		differs := false
		for i := 0; i < 64; i++ {
			ra, err := a.request(i)
			if err != nil {
				t.Fatalf("%s request %d: %v", w, i, err)
			}
			rb, _ := b.request(i)
			rc, _ := c.request(i)
			if ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s request %d differs between two generators with seed 7", w, i)
			}
			if ra.Path != rc.Path || !bytes.Equal(ra.Body, rc.Body) {
				differs = true
			}
			key := ra.Path + "\x00" + string(ra.Body)
			if w != warmMix && seen[key] {
				t.Fatalf("%s request %d repeats an earlier request of the run", w, i)
			}
			seen[key] = true
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same 64 requests", w)
		}
	}
}

func TestSweepPeriodsAscend(t *testing.T) {
	gen, _ := newGenerator(sweepCold, 3)
	for i := 0; i < 16; i++ {
		r, err := gen.request(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Periods) != sweepPoints {
			t.Fatalf("request %d has %d periods", i, len(r.Periods))
		}
		for k := 1; k < len(r.Periods); k++ {
			if !r.Periods[k-1].Less(r.Periods[k]) {
				t.Fatalf("request %d: periods not ascending at %d", i, k)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 over 999 samples (9 beyond) was not refused")
	}
	got, err := percentile(samples(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 over 1000 samples = %v, %v; want 990 with 10 beyond", got, err)
	}
	if _, err := percentile(samples(19), 0.5); err == nil {
		t.Error("p50 over 19 samples (9 beyond) was not refused")
	}
	if got, err := percentile(samples(21), 0.5); err != nil || got != 11 {
		t.Errorf("p50 over 21 samples = %v, %v; want 11", got, err)
	}
}

// TestJudgedMetricsMatchBenchmarkJSON pins the JSON line's end-to-end
// metrics, names and units, to the end_to_end list of BENCHMARK.json.
func TestJudgedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	lr := &loadResult{attempted: 1000, wall: time.Second}
	for i := 0; i < lr.attempted; i++ {
		lr.latMS = append(lr.latMS, float64(i+1))
	}
	m, err := endToEnd(lr, []float64{0.1}, time.Second, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := judged(m)
	for _, want := range spec.EndToEnd {
		if v, ok := got[want.Name]; !ok || v.Unit != want.Unit {
			t.Errorf("BENCHMARK.json metric %s (%s): JSON line has %+v, present %v", want.Name, want.Unit, v, ok)
		}
		if v := got[want.Name].Value; v == 0 {
			t.Errorf("metric %s reads 0", want.Name)
		}
	}
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("JSON line has %d end-to-end metrics, BENCHMARK.json %d", len(got), len(spec.EndToEnd))
	}
	if _, ok := m["latency_p99_ms"]; !ok {
		t.Error("the report lost latency_p99_ms")
	}
}

// serveOnce answers r from an in-process server.
func serveOnce(t *testing.T, srv *serve.Server, r request) []byte {
	t.Helper()
	body, status := handle(srv, r)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.Path, status, body)
	}
	return append([]byte(nil), body...)
}

func remarshal(t *testing.T, body []byte, v any, edit func()) []byte {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	edit()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestCheckerRejectsDoctoredResponses(t *testing.T) {
	srv := serve.New(serve.Config{Store: probecache.NewStore("")})
	defer srv.Close()
	chk := &checker{}

	mc, _ := newGenerator(minimizeCold, 5)
	chain, _ := mc.request(0)
	mp3Req, _ := mc.request(3)
	if chain.MP3 || !mp3Req.MP3 {
		t.Fatal("request 0 should be a graphgen chain and request 3 the §5 chain")
	}
	chainBody := serveOnce(t, srv, chain)
	mp3Body := serveOnce(t, srv, mp3Req)
	for _, c := range []struct {
		r    request
		body []byte
	}{{chain, chainBody}, {mp3Req, mp3Body}} {
		if err := chk.check(c.r, http.StatusOK, c.body); err != nil {
			t.Fatalf("genuine response rejected: %v", err)
		}
		if err := deepCheck(c.r, c.body); err != nil {
			t.Fatalf("genuine response fails the deep check: %v", err)
		}
	}
	if err := chk.check(chain, http.StatusServiceUnavailable, chainBody); err == nil {
		t.Error("a 503 was accepted")
	}

	var m minimizeResponse
	over := remarshal(t, chainBody, &m, func() { m.Buffers[0].Minimal = m.Buffers[0].Analytic + 1; m.MinimalTotal++ })
	if err := chk.check(chain, http.StatusOK, over); err == nil || !strings.Contains(err.Error(), "minimal") {
		t.Errorf("minimal > analytic accepted (err %v)", err)
	}
	var m3 minimizeResponse
	wrong := remarshal(t, mp3Body, &m3, func() { m3.Buffers[2].Analytic = 882; m3.AnalyticTotal-- })
	if err := chk.check(mp3Req, http.StatusOK, wrong); err == nil {
		t.Error("§5 analytic 6015/3263/882 accepted")
	}
	extra := bytes.Replace(chainBody, []byte(`"valid":true`), []byte(`"valid":true,"cached":true`), 1)
	if err := chk.check(chain, http.StatusOK, extra); err == nil {
		t.Error("a response with an unknown field was accepted")
	}

	sc, _ := newGenerator(sweepCold, 5)
	sw, _ := sc.request(0)
	swBody := serveOnce(t, srv, sw)
	if err := chk.check(sw, http.StatusOK, swBody); err != nil {
		t.Fatalf("genuine sweep rejected: %v", err)
	}
	if err := deepCheck(sw, swBody); err != nil {
		t.Fatalf("genuine sweep fails the deep check: %v", err)
	}
	var s sweepResponse
	backToInvalid := remarshal(t, swBody, &s, func() { s.Points[len(s.Points)-1].Valid = false })
	if !s.Points[len(s.Points)-2].Valid {
		t.Fatal("the sweep's second-to-last point should be valid")
	}
	if err := chk.check(sw, http.StatusOK, backToInvalid); err == nil || !strings.Contains(err.Error(), "invalid after a valid") {
		t.Errorf("validity returning to invalid accepted (err %v)", err)
	}
	var s2 sweepResponse
	growing := remarshal(t, swBody, &s2, func() { s2.Points[len(s2.Points)-1].Total += 1000 })
	if err := chk.check(sw, http.StatusOK, growing); err == nil {
		t.Error("a total growing with the period was accepted")
	}
	var s3 sweepResponse
	short := remarshal(t, swBody, &s3, func() { s3.Points = s3.Points[1:] })
	if err := chk.check(sw, http.StatusOK, short); err == nil {
		t.Error("a sweep missing a point was accepted")
	}

	wm, _ := newGenerator(warmMix, 5)
	primed := wm.primed[0]
	warmChk := &checker{primed: [][]byte{serveOnce(t, srv, primed)}}
	repeat := wm.warmRequest(0)
	repeat.Problem = 0
	if err := warmChk.check(repeat, http.StatusOK, warmChk.primed[0]); err != nil {
		t.Fatalf("primed body rejected: %v", err)
	}
	differs := append(append([]byte(nil), warmChk.primed[0][:len(warmChk.primed[0])-1]...), ' ', '\n')
	if err := warmChk.check(repeat, http.StatusOK, differs); err == nil {
		t.Error("a warm body differing from its primed body was accepted")
	}
}

func TestLayeredReplayMatchesHandler(t *testing.T) {
	for _, w := range workloads {
		gen, err := newGenerator(w, 9)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(true)
		res, err := replay(gen, 24, tr)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.mismatched > 0 {
			t.Errorf("%s: %d layered replies differ from the handler's: %v", w, res.mismatched, res.mismatches)
		}
		handlers := 0
		for _, sp := range tr.spans {
			if sp.End < sp.Start {
				t.Fatalf("%s: span %+v ends before it starts", w, sp)
			}
			if sp.Name == spanHandler {
				handlers++
			}
		}
		if handlers != 24 {
			t.Errorf("%s: %d serve.handler spans for 24 requests", w, handlers)
		}
	}
}
