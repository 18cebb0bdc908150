package probecache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vrdfcap/internal/cachestore"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func pairGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphKeyDeterministicAndSensitive(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "policy=equation4")
	if key != GraphKey(g, "policy=equation4") {
		t.Fatal("fingerprint is not deterministic")
	}
	if key == GraphKey(g, "policy=baseline") {
		t.Error("parts do not distinguish fingerprints")
	}
	if key == GraphKey(g.Clone()) {
		t.Error("parts absent vs present collide")
	}
	if GraphKey(g) != GraphKey(g.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	// Any semantic edit must move the key.
	mutated := g.Clone()
	mutated.Tasks()[0].WCRT = r(2, 1)
	if GraphKey(g) == GraphKey(mutated) {
		t.Error("WCRT change kept the fingerprint")
	}
	sized := g.Clone()
	sized.Buffers()[0].Capacity = 7
	if GraphKey(g) == GraphKey(sized) {
		t.Error("capacity change kept the fingerprint")
	}
	// Insertion order must not matter: same tasks/buffer added in another
	// order fingerprints identically.
	other := taskgraph.New()
	if _, err := other.AddTask("wb", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.AddTask("wa", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.AddBuffer(taskgraph.Buffer{
		Producer: "wa", Consumer: "wb",
		Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(2, 3),
	}); err != nil {
		t.Fatal(err)
	}
	if GraphKey(g) != GraphKey(other) {
		t.Error("task insertion order changed the fingerprint")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := pairGraph(t)
	key := GraphKey(g, "test")

	s := NewStore(dir)
	e := s.Entry(key)
	f, err := e.Frontier([]string{"wa->wb", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 4, "x": 2}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 2, "x": 1}, false); err != nil {
		t.Fatal(err)
	}
	e.Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 7})
	e.Periods().Insert(r(1, 2), Verdict{Valid: false})
	if n, err := s.Flush(); err != nil || n != 1 {
		t.Fatalf("Flush = (%d, %v), want (1, nil)", n, err)
	}

	// A fresh store warm-starts from the file.
	warm := NewStore(dir)
	we := warm.Entry(key)
	wf, err := we.Frontier([]string{"wa->wb", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 9, "x": 9}); !hit || !feasible {
		t.Errorf("warm frontier missed a dominated probe: (%v, %v)", feasible, hit)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 1, "x": 1}); !hit || feasible {
		t.Errorf("warm frontier missed a dominated infeasible probe: (%v, %v)", feasible, hit)
	}
	if v, ok := we.Periods().Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 7 {
		t.Errorf("warm periods = (%+v, %v)", v, ok)
	}
	if st := warm.Stats(); st.Loaded != 1 || st.Skipped != 0 {
		t.Errorf("stats = %+v, want one loaded file", st)
	}

	// Re-flushing a warm store keeps the file loadable and atomic writes
	// leave no temp litter behind.
	if _, err := warm.Flush(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(matches) != 0 {
		t.Errorf("temp files left behind: %v (%v)", matches, err)
	}
}

// corruptionCase writes a bad cache file and expects the loader to ignore
// it and start cold — never to fail and never to trust it.
func TestStoreIgnoresUntrustedFiles(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "test")
	buffers := []string{"wa->wb"}

	// write seals the file like a real Flush would (the checksum is
	// computed over whatever Version/Fingerprint the case supplies), so
	// each case exercises the one validation layer it is about.
	write := func(t *testing.T, dir string, f diskFile) {
		t.Helper()
		data, err := seal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	expectCold := func(t *testing.T, dir string) {
		t.Helper()
		s := NewStore(dir)
		e := s.Entry(key)
		f, err := e.Frontier(buffers)
		if err != nil {
			t.Fatal(err)
		}
		if feas, inf := f.Size(); feas+inf != 0 {
			t.Errorf("untrusted file was absorbed: %d feasible, %d infeasible", feas, inf)
		}
		if n := e.Periods().Len(); n != 0 {
			t.Errorf("untrusted periods absorbed: %d", n)
		}
	}

	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
		if st := NewStoreLoaded(t, dir, key, buffers); st.Skipped != 1 {
			t.Errorf("skipped = %d, want 1", st.Skipped)
		}
	})
	t.Run("version-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version + 1, Fingerprint: key,
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: "deadbeef",
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("non-positive-period", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: -1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("contradictory-frontier", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{
				Buffers:    buffers,
				Feasible:   [][]int64{{2}},
				Infeasible: [][]int64{{3}}, // feasible 2 ≤ infeasible 3: impossible
			}})
		expectCold(t, dir)
	})
	t.Run("wrong-buffer-order", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{Buffers: []string{"other"}, Feasible: [][]int64{{2}}}})
		expectCold(t, dir)
	})
	t.Run("missing-checksum", func(t *testing.T) {
		dir := t.TempDir()
		data, err := json.Marshal(diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		// A flipped digit in a Total parses fine and is monotonically
		// plausible — only the content checksum can catch it. This is the
		// corruption the chaos schedules inject.
		dir := t.TempDir()
		good := diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: 3, Den: 1, Valid: true, Total: 7}}}
		sum, err := sumOf(good)
		if err != nil {
			t.Fatal(err)
		}
		good.Sum = sum
		good.Periods[0].Total = 8 // corrupt AFTER sealing
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
		if st := NewStoreLoaded(t, dir, key, buffers); st.Skipped != 1 {
			t.Errorf("skipped = %d, want 1", st.Skipped)
		}
	})
}

// TestStoreToleratesTruncationAtEveryByte flushes a real entry, then
// truncates the persisted file at every possible length: every prefix
// must load as either a trusted full file (only the full length) or a
// cold start — never an error, never partial trust.
func TestStoreToleratesTruncationAtEveryByte(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "truncate")
	buffers := []string{"wa->wb"}

	dir := t.TempDir()
	s := NewStore(dir)
	e := s.Entry(key)
	f, err := e.Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 1}, false); err != nil {
		t.Fatal(err)
	}
	e.Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 7})
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		warm := NewStore(dir)
		we := warm.Entry(key)
		wf, err := we.Frontier(buffers)
		if err != nil {
			t.Fatalf("truncated at %d/%d bytes: Frontier errored: %v", n, len(full), err)
		}
		st := warm.Stats()
		feas, inf := wf.Size()
		switch {
		case st.Loaded == 1:
			// Trusting a prefix is only sound when it is semantically the
			// whole file (e.g. only the trailing newline is gone): the
			// checksum re-verifies from the parsed content, so a trusted
			// load must reproduce EVERYTHING — all-or-nothing, by
			// construction.
			if feas != 1 || inf != 1 || we.Periods().Len() != 1 {
				t.Fatalf("truncated at %d/%d bytes half-trusted: frontier (%d, %d), periods %d",
					n, len(full), feas, inf, we.Periods().Len())
			}
			if v, ok := we.Periods().Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 7 {
				t.Fatalf("truncated at %d/%d bytes loaded an altered verdict: (%+v, %v)", n, len(full), v, ok)
			}
		case st.Loaded == 0 && feas+inf == 0 && we.Periods().Len() == 0:
			// Cold start: the truncation was detected and ignored.
		default:
			t.Fatalf("truncated at %d/%d bytes was part-trusted: stats %+v, frontier (%d, %d), periods %d",
				n, len(full), st, feas, inf, we.Periods().Len())
		}
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if st := NewStoreLoaded(t, dir, key, buffers); st.Loaded != 1 {
		t.Fatalf("restored full file did not warm-start: %+v", st)
	}
}

// TestFlushMergesConcurrentReplicas drives two stores over one shared
// backend directory — the two-replica topology — and checks a flush
// folds in what the other replica persisted instead of overwriting it.
func TestFlushMergesConcurrentReplicas(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "merge")
	buffers := []string{"wa->wb"}
	dir := t.TempDir()

	a, b := NewStore(dir), NewStore(dir)
	af, err := a.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := b.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	// Replica A learns a feasible point and a period verdict; replica B
	// learns an infeasible point and a different period verdict.
	if err := af.Insert(map[string]int64{"wa->wb": 5}, true); err != nil {
		t.Fatal(err)
	}
	a.Entry(key).Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 5})
	if err := bf.Insert(map[string]int64{"wa->wb": 1}, false); err != nil {
		t.Fatal(err)
	}
	b.Entry(key).Periods().Insert(r(1, 2), Verdict{Valid: false})

	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	warm := NewStore(dir)
	wf, err := warm.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 9}); !hit || !feasible {
		t.Errorf("replica A's feasible verdict lost in merge: (%v, %v)", feasible, hit)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 1}); !hit || feasible {
		t.Errorf("replica B's infeasible verdict lost in merge: (%v, %v)", feasible, hit)
	}
	p := warm.Entry(key).Periods()
	if v, ok := p.Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 5 {
		t.Errorf("replica A's period verdict lost in merge: (%+v, %v)", v, ok)
	}
	if v, ok := p.Lookup(r(1, 2)); !ok || v.Valid {
		t.Errorf("replica B's period verdict lost in merge: (%+v, %v)", v, ok)
	}
	if err := wf.SelfCheck(); err != nil {
		t.Errorf("merged frontier fails self-check: %v", err)
	}
}

// NewStoreLoaded opens a store, touches the entry and returns the stats;
// helper for asserting skip counters.
func NewStoreLoaded(t *testing.T, dir, key string, buffers []string) StoreStats {
	t.Helper()
	s := NewStore(dir)
	e := s.Entry(key)
	if _, err := e.Frontier(buffers); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

func TestEntryFrontierOrderMismatch(t *testing.T) {
	s := NewStore("")
	e := s.Entry("k")
	if _, err := e.Frontier([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Frontier([]string{"b", "a"}); err == nil {
		t.Error("conflicting buffer order accepted")
	}
	if _, err := e.Frontier([]string{"a", "b"}); err != nil {
		t.Errorf("matching order rejected: %v", err)
	}
}

func TestMemoryStoreFlushIsNoOp(t *testing.T) {
	s := NewStore("")
	e := s.Entry("k")
	e.Periods().Insert(ratio.One, Verdict{Valid: true})
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Errorf("Flush on memory store = (%d, %v), want (0, nil)", n, err)
	}
}

func TestSharedStoreIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Error("Shared returned distinct stores")
	}
	if Shared().Dir() != "" {
		t.Error("shared store must be memory-only")
	}
}

func TestFlushSkipsEmptyEntries(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	s.Entry("empty")
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Errorf("Flush wrote %d files (%v), want 0", n, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".json") {
			t.Errorf("empty entry persisted: %s", de.Name())
		}
	}
}

// TestMemoryStoreBoundedLRU pins the resident cap of memory-only stores:
// 10,000 distinct problems leave at most MemoryEntries resident, the least
// recently used go first, and an evicted problem comes back cold.
func TestMemoryStoreBoundedLRU(t *testing.T) {
	s := NewStore("")
	hot := s.Entry("hot")
	if _, err := hot.Frontier([]string{"b"}); err != nil {
		t.Fatal(err)
	}
	if err := hot.frontier.Insert(map[string]int64{"b": 5}, true); err != nil {
		t.Fatal(err)
	}
	first := s.Entry("fp-0")
	for i := 0; i < 10_000; i++ {
		s.Entry(fmt.Sprintf("fp-%d", i))
		if i%1000 == 0 {
			s.Entry("hot") // touched often enough to stay resident
		}
	}
	if n := s.Stats().Entries; n > MemoryEntries {
		t.Fatalf("%d entries resident, cap %d", n, MemoryEntries)
	}
	if s.Entry("hot") != hot {
		t.Error("a recently used entry was evicted")
	}
	again := s.Entry("fp-0")
	if again == first {
		t.Fatal("the least recently used entry was never evicted")
	}
	f, err := again.Frontier([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if feas, infeas := f.Size(); feas+infeas != 0 {
		t.Errorf("re-created entry is not cold: %d/%d verdicts", feas, infeas)
	}
}

// TestMemoryStoreKeepsWorkingSet: a working set below the cap — warm-mix's
// 96 primed problems — stays resident however often it is cycled.
func TestMemoryStoreKeepsWorkingSet(t *testing.T) {
	s := NewStore("")
	entries := make([]*Entry, 96)
	for i := range entries {
		entries[i] = s.Entry(fmt.Sprintf("problem-%d", i))
	}
	for round := 0; round < 50; round++ {
		for i := range entries {
			if s.Entry(fmt.Sprintf("problem-%d", (i*7+round)%96)) != entries[(i*7+round)%96] {
				t.Fatalf("round %d: problem %d was evicted", round, (i*7+round)%96)
			}
		}
	}
	if n := s.Stats().Entries; n != 96 {
		t.Errorf("%d entries resident, want 96", n)
	}
}

// TestBackedStoreIsNotCapped: a store with a persistence tier keeps every
// entry, so Flush persists every verdict it computed.
func TestBackedStoreIsNotCapped(t *testing.T) {
	s := NewStoreBackend(cachestore.NewMem())
	for i := 0; i < MemoryEntries+10; i++ {
		s.Entry(fmt.Sprintf("fp-%d", i))
	}
	if n := s.Stats().Entries; n != MemoryEntries+10 {
		t.Errorf("%d entries resident, want %d", n, MemoryEntries+10)
	}
}

// TestMemoryStoreConcurrentEviction: concurrent lookups that keep evicting
// leave the store consistent — resident count within the cap, and every
// resident fingerprint found again as the entry the store holds for it.
func TestMemoryStoreConcurrentEviction(t *testing.T) {
	s := NewStore("")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				e := s.Entry(fmt.Sprintf("fp-%d", (i*(g+1))%(MemoryEntries+700)))
				if _, err := e.Frontier([]string{"b"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != s.recent.Len() || len(s.entries) > MemoryEntries {
		t.Fatalf("%d entries mapped, %d in LRU order, cap %d", len(s.entries), s.recent.Len(), MemoryEntries)
	}
	for el := s.recent.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if s.entries[e.fp] != e {
			t.Fatalf("LRU order holds %s, the map does not", e.fp)
		}
	}
}
