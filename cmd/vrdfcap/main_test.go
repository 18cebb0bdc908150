package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vrdfcap"
	"vrdfcap/internal/mp3"
)

func writeMP3JSON(t *testing.T, withConstraint bool) string {
	t.Helper()
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var c *vrdfcap.Constraint
	if withConstraint {
		cc := mp3.Constraint()
		c = &cc
	}
	data, err := vrdfcap.EncodeJSON(g, c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mp3.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"6015", "3263", "883", "vDAC", "total capacity: 10161"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunWithVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("verification horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-verify", "-firings", "500", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified") {
		t.Errorf("verification section missing:\n%s", out.String())
	}
}

func TestRunHybridPolicy(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-policy", "hybrid", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total capacity: 9969") {
		t.Errorf("hybrid totals wrong:\n%s", out.String())
	}
}

func TestRunDOT(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-dot", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph taskgraph") {
		t.Errorf("DOT output missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-vrdf-dot", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph vrdf") {
		t.Errorf("VRDF DOT output missing:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"capacity": 6015`) {
		t.Errorf("sized JSON missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"a", "b"}, &out); err == nil {
		t.Error("two files accepted")
	}
	if err := run([]string{"/nonexistent/x.json"}, &out); err == nil {
		t.Error("unreadable file accepted")
	}
	noCon := writeMP3JSON(t, false)
	if err := run([]string{noCon}, &out); err == nil {
		t.Error("document without constraint accepted")
	}
	withCon := writeMP3JSON(t, true)
	if err := run([]string{"-policy", "nope", withCon}, &out); err == nil {
		t.Error("bad policy accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestRunLatencyAndSweep(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-latency", "-sweep", "1/88200,1/44100,1/22050", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "anchored schedule: sink offset 28597/240000") {
		t.Errorf("latency section missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "period sweep") || !strings.Contains(text, "infeasible") {
		t.Errorf("sweep section missing:\n%s", text)
	}
	if err := run([]string{"-sweep", "x", path}, &out); err == nil {
		t.Error("bad sweep list accepted")
	}
	if err := run([]string{"-sweep", "-3", path}, &out); err == nil {
		t.Error("negative sweep period accepted")
	}
}

func TestRunTextDocument(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"../../testdata/mp3.txt"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"6015", "3263", "total memory: 22599 bytes"} {
		if !strings.Contains(text, want) {
			t.Errorf("text-format analysis missing %q:\n%s", want, text)
		}
	}
}

func TestRunExactCertificate(t *testing.T) {
	// A small graph gets the exhaustive certificate; the MP3 graph trips
	// the state guard with a clear message.
	small := filepath.Join(t.TempDir(), "small.txt")
	doc := "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 3 cons {2,3}\nconstraint b period 3\n"
	if err := os.WriteFile(small, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exact", small}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadlock-free for EVERY quanta sequence") {
		t.Errorf("certificate missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exact", writeMP3JSON(t, true)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact certificate unavailable") {
		t.Errorf("guard message missing:\n%s", out.String())
	}
}

// TestRunMinimize pins the -minimize report and its independence of
// -parallel: a search probes one capacity at a time, so everything but the
// timing line — capacities, probe counts and simulated events included —
// is identical at every worker count. Each run gets a fresh in-memory
// verdict store, so both searches start cold.
func TestRunMinimize(t *testing.T) {
	path := writeMP3JSON(t, true)
	outputs := make(map[string]string)
	for _, workers := range []string{"1", "2"} {
		var out bytes.Buffer
		if err := run([]string{"-minimize", "-firings", "441", "-parallel", workers, "-cache-backend", "mem:", "-stats", path}, &out); err != nil {
			t.Fatal(err)
		}
		outputs[workers] = out.String()
	}
	text := outputs["2"]
	wants := []string{
		"empirically minimal capacities for this workload",
		"answered by the feasibility cache",
		"decided by analytic bounds",
		"probe effort:",
		"replayed from checkpoints",
		"totals: analytic=10161",
		"cache_hits=",
	}
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q:\n%s", w, text)
		}
	}
	if serial, par := stripTimings(outputs["1"]), stripTimings(text); serial != par {
		t.Errorf("-minimize output depends on -parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}

// stripTimings drops the run-stats line, whose wall/CPU times and worker
// count legitimately vary between runs.
func stripTimings(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "run stats:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestRunMinimizeColdCheckpoints pins the -checkpoints 0 escape hatch: warm
// starts off, the search still runs and finds the same kind of report.
func TestRunMinimizeColdCheckpoints(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-firings", "441", "-checkpoints", "0", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "0 replayed from checkpoints (0 warm resets") {
		t.Errorf("-checkpoints 0 still warm-started:\n%s", text)
	}
}

func TestRunProfiles(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out bytes.Buffer
	// CPU profiling is process-global, so no other test may profile
	// concurrently; package tests run sequentially here.
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x"), path}, &out); err == nil {
		t.Error("unwritable profile path accepted")
	}
}

func TestRunParallelSweepAndStats(t *testing.T) {
	path := writeMP3JSON(t, true)
	sweep := "1/44100,1/40000,1/30000"
	var serial, par bytes.Buffer
	if err := run([]string{"-sweep", sweep, "-parallel", "1", path}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", sweep, "-parallel", "4", path}, &par); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
	var out bytes.Buffer
	if err := run([]string{"-sweep", sweep, "-parallel", "4", "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	// 1 analysis + 3 sweep points; no verification.
	if !strings.Contains(out.String(), "run stats: probes=4 sim_events=0 workers=4") {
		t.Errorf("stats line missing or wrong:\n%s", out.String())
	}
}

func TestRunVerifyWithJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("verification horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-verify", "-firings", "441", "-jitter", "1/2", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "injecting admissible execution-time jitter up to 1/2") {
		t.Errorf("jitter notice missing:\n%s", text)
	}
	if !strings.Contains(text, "verified: strictly periodic schedule sustained") {
		t.Errorf("jittered verification did not pass at eq(4) capacities:\n%s", text)
	}
}

func TestRunMinimizeFirings(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", "-parallel", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "441 firings per probe") {
		t.Errorf("-minimize-firings not honoured:\n%s", text)
	}
	if !strings.Contains(text, "minimal=") {
		t.Errorf("minimization totals missing:\n%s", text)
	}
}

func TestRunDegradationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-degradation", "2", "-firings", "441", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"fault-injection degradation sweep", "overrun factor", "slack"} {
		if !strings.Contains(text, want) {
			t.Errorf("degradation output missing %q:\n%s", want, text)
		}
	}
}

// TestRunDegradationStatsCountsEvents pins that -stats counts the events the
// degradation sweep's verifications simulate, not just the points.
func TestRunDegradationStatsCountsEvents(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-degradation", "2", "-firings", "441", "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`run stats: probes=(\d+) sim_events=(\d+) `).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("stats line missing:\n%s", out.String())
	}
	// 1 analysis + 9 sweep points.
	if m[1] != "10" || m[2] == "0" {
		t.Errorf("stats line counts probes=%s sim_events=%s, want probes=10 and sim_events>0", m[1], m[2])
	}
}

func TestRunTimeoutExpired(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	err := run([]string{"-verify", "-timeout", "1ns", path}, &out)
	if !errors.Is(err, vrdfcap.ErrBudgetExceeded) {
		t.Errorf("expired -timeout: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunBadFaultFlags(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-jitter", "nope", path}, &out); err == nil {
		t.Error("malformed -jitter accepted")
	}
	if err := run([]string{"-degradation", "1", path}, &out); err == nil {
		t.Error("-degradation factor 1 accepted (must exceed 1)")
	}
	if err := run([]string{"-verify", "-jitter", "3/2", path}, &out); err == nil {
		t.Error("inadmissible jitter >= 1 accepted")
	}
}

// minimizeSection extracts the minimization block (capacities + totals) so
// cold and warm runs can be compared while timings and stats vary.
func minimizeSection(t *testing.T, text string) string {
	t.Helper()
	i := strings.Index(text, "empirically minimal capacities")
	j := strings.Index(text, "totals: analytic=")
	if i < 0 || j < 0 {
		t.Fatalf("minimize section missing:\n%s", text)
	}
	end := strings.IndexByte(text[j:], '\n')
	if end < 0 {
		end = len(text) - j
	}
	// Drop the first line (it reports probe counts, which differ between
	// cold and warm runs by design).
	block := text[i : j+end]
	if nl := strings.IndexByte(block, '\n'); nl >= 0 {
		block = block[nl+1:]
	}
	return block
}

func TestRunMinimizeCacheDirColdWarm(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := t.TempDir()
	args := []string{"-minimize", "-minimize-firings", "441", "-cache-dir", dir, "-stats", path}

	var cold bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache file written to %s (%v)", dir, err)
	}
	if !strings.Contains(cold.String(), "1 written") {
		t.Errorf("cold run stats missing the flush count:\n%s", cold.String())
	}

	var warm bytes.Buffer
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "0 probes simulated") {
		t.Errorf("warm cache-dir run still simulated probes:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "1 loaded") {
		t.Errorf("warm run stats missing the loaded count:\n%s", warm.String())
	}
	if got, want := minimizeSection(t, warm.String()), minimizeSection(t, cold.String()); got != want {
		t.Errorf("warm cache changed the found capacities:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}

	// Corrupt every cache file: the next run must fall back to cold
	// simulation — same answers, no trust in the broken files.
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{definitely not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var healed bytes.Buffer
	if err := run(args, &healed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(healed.String(), "0 probes simulated") {
		t.Errorf("corrupt cache was trusted:\n%s", healed.String())
	}
	if !strings.Contains(healed.String(), "1 skipped") {
		t.Errorf("corrupt file not reported as skipped:\n%s", healed.String())
	}
	if got, want := minimizeSection(t, healed.String()), minimizeSection(t, cold.String()); got != want {
		t.Errorf("post-corruption run changed the found capacities:\n--- cold ---\n%s\n--- healed ---\n%s", want, got)
	}
}

func TestRunNoCacheDisablesCaching(t *testing.T) {
	path := writeMP3JSON(t, true)
	// Warm the process-wide shared store first, then prove -no-cache
	// ignores it (and -cache-dir) entirely.
	var warmup bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", path}, &warmup); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", "-no-cache",
		"-cache-dir", t.TempDir(), "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "0 probes simulated") {
		t.Errorf("-no-cache run answered probes from a cache:\n%s", text)
	}
	if !strings.Contains(text, ", 0 answered by the feasibility cache") {
		t.Errorf("-no-cache run reported cache hits:\n%s", text)
	}
	if !strings.Contains(text, "cache: disabled") {
		t.Errorf("stats line does not report the disabled cache:\n%s", text)
	}
	if got, want := minimizeSection(t, text), minimizeSection(t, warmup.String()); got != want {
		t.Errorf("-no-cache changed the found capacities:\n--- cached ---\n%s\n--- no-cache ---\n%s", want, got)
	}
}

// TestRunSweepCacheDirUntouched pins that a local -sweep leaves the
// verdict store alone: the closed form answers every period, so a sweep
// writes no cache file under -cache-dir, and a rerun prints the same curve.
func TestRunSweepCacheDirUntouched(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := t.TempDir()
	sweep := "1/44100,1/40000,1/30000"
	var cold, warm bytes.Buffer
	if err := run([]string{"-sweep", sweep, "-cache-dir", dir, path}, &cold); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 0 {
		t.Fatalf("sweep wrote %d cache files (%v), want none", len(files), err)
	}
	if !strings.Contains(cold.String(), "τ=1/44100      total capacity 10161") {
		t.Errorf("sweep output lacks the §5 point:\n%s", cold.String())
	}
	if err := run([]string{"-sweep", sweep, "-cache-dir", dir, path}, &warm); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Errorf("second sweep output differs from the first:\n--- first ---\n%s\n--- second ---\n%s",
			cold.String(), warm.String())
	}
}
