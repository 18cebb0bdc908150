package cachestore_test

// Chaos suite for the fault-tolerant verdict store. The probecache is
// advisory — a backend may change how many probes a search simulates,
// never what it answers — so every test here drives a real minimization
// through backends misbehaving under a seeded faultybackend schedule and
// holds the results against the cache-less ground truth: identical
// sizings, a monotone merged frontier, zero failed analyses.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/cachestore"
	"vrdfcap/internal/cachestore/faultybackend"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// chaosChain is the three-stage chain the shared-cache tests minimise:
// small enough that one search takes milliseconds, rich enough that the
// frontier holds both feasible and infeasible vectors.
func chaosChain(t testing.TB) (*taskgraph.Graph, []string, map[string]int64) {
	t.Helper()
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: ratio.FromInt(1)},
			{Name: "b", WCRT: ratio.FromInt(1)},
			{Name: "c", WCRT: ratio.FromInt(1)},
		},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(3)},
			{Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(3)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g, []string{"a->b", "b->c"}, map[string]int64{"a->b": 40, "b->c": 40}
}

// groundTruth is the cache-less minimum every chaotic run must reproduce.
func groundTruth(t testing.TB, g *taskgraph.Graph, buffers []string, upper map[string]int64) map[string]int64 {
	t.Helper()
	opts := minimize.Options{NoCache: true}
	res, err := minimize.Search(buffers, upper,
		minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Caps
}

// newSharedRemote serves one in-memory tier over the /v1/cache protocol —
// the store a fleet of replicas shares.
func newSharedRemote(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(withCachePrefix(cachestore.Handler(cachestore.NewMem(), cachestore.HandlerLimits{})))
	t.Cleanup(ts.Close)
	return ts.URL
}

func remoteBackend(t *testing.T, url string) cachestore.Backend {
	t.Helper()
	b, err := cachestore.NewHTTP(url)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosOptions keeps the resilience layer's real-time knobs small enough
// for a test while preserving its semantics: retries, breaker, demotion.
func chaosOptions(seed uint64) cachestore.Options {
	return cachestore.Options{
		OpTimeout:        2 * time.Second,
		Retries:          2,
		Backoff:          time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		FailureThreshold: 3,
		Cooldown:         10 * time.Millisecond,
		Seed:             seed,
	}
}

// TestChaosSearchMatchesNoCacheUnderFaultSchedules is the tentpole
// guarantee: under every seeded fault schedule — injected errors, latency
// spikes, truncated and corrupted payloads, a full partition — a search
// through the faulty store finds capacities byte-identical to the
// cache-less run, the flush never fails (a demoted store is a healthy
// store), and a fresh replica loading whatever the faulty store persisted
// gets a frontier that still satisfies the monotone antichain invariants.
func TestChaosSearchMatchesNoCacheUnderFaultSchedules(t *testing.T) {
	g, buffers, upper := chaosChain(t)
	want := groundTruth(t, g, buffers, upper)
	fp := probecache.GraphKey(g, "chaos-minimize", "deadlock", "80")

	schedules := []struct {
		name string
		spec faultybackend.Spec
	}{
		{"errors", faultybackend.Spec{Seed: 11, ErrorOneIn: 2}},
		{"latency", faultybackend.Spec{Seed: 12, LatencyOneIn: 2, Latency: 200 * time.Microsecond}},
		{"truncate", faultybackend.Spec{Seed: 13, TruncateOneIn: 2}},
		{"corrupt", faultybackend.Spec{Seed: 14, CorruptOneIn: 2}},
		{"partition", faultybackend.Spec{Partitioned: true}},
		{"everything", faultybackend.Spec{
			Seed: 15, ErrorOneIn: 3, LatencyOneIn: 3, Latency: 100 * time.Microsecond,
			TruncateOneIn: 3, CorruptOneIn: 3,
		}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			url := newSharedRemote(t)

			// Replica A searches and flushes through the faulty remote.
			faultyA := faultybackend.Wrap(remoteBackend(t, url), sched.spec)
			storeA := probecache.NewStoreBackend(
				cachestore.NewResilient(faultyA, cachestore.NewMem(), chaosOptions(sched.spec.Seed)))
			frontA, err := storeA.Entry(fp).Frontier(buffers)
			if err != nil {
				t.Fatal(err)
			}
			opts := minimize.Options{Cache: frontA}
			got, err := minimize.Search(buffers, upper,
				minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
			if err != nil {
				t.Fatalf("search through faulty store failed: %v", err)
			}
			if !reflect.DeepEqual(got.Caps, want) {
				t.Fatalf("faulty store changed the sizing: got %v, want %v", got.Caps, want)
			}
			if _, err := storeA.Flush(); err != nil {
				t.Fatalf("flush through faulty store failed (demotion must absorb it): %v", err)
			}

			// Replica B loads whatever A managed to persist — possibly
			// truncated, corrupted, or nothing at all — and must come up
			// either warm with a monotone frontier or cold, never wrong.
			specB := sched.spec
			specB.Seed ^= 0x5eed
			faultyB := faultybackend.Wrap(remoteBackend(t, url), specB)
			storeB := probecache.NewStoreBackend(
				cachestore.NewResilient(faultyB, cachestore.NewMem(), chaosOptions(specB.Seed)))
			frontB, err := storeB.Entry(fp).Frontier(buffers)
			if err != nil {
				t.Fatal(err)
			}
			if err := frontB.SelfCheck(); err != nil {
				t.Fatalf("frontier loaded from faulty store is not monotone: %v", err)
			}
			optsB := minimize.Options{Cache: frontB}
			again, err := minimize.Search(buffers, upper,
				minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, optsB), optsB)
			if err != nil {
				t.Fatalf("replica B search failed: %v", err)
			}
			if !reflect.DeepEqual(again.Caps, want) {
				t.Fatalf("replica B sizing diverged: got %v, want %v", again.Caps, want)
			}

			if sched.spec.Partitioned {
				st := storeA.Stats()
				if st.Resilience == nil || st.Resilience.Demotions == 0 {
					t.Errorf("partitioned store reported no demotions: %+v", st.Resilience)
				}
			}
		})
	}
}

// TestChaosTwoReplicasConcurrentSharedRemote runs two replicas searching
// and flushing through one remote store at the same time (the -race
// target): merge-on-flush must keep the persisted payload decodable and
// the merged frontier monotone, and a third replica reading the merged
// store must still find the ground-truth sizing.
func TestChaosTwoReplicasConcurrentSharedRemote(t *testing.T) {
	g, buffers, upper := chaosChain(t)
	want := groundTruth(t, g, buffers, upper)
	fp := probecache.GraphKey(g, "chaos-minimize", "deadlock", "80")
	url := newSharedRemote(t)

	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed uint64) {
			store := probecache.NewStoreBackend(
				cachestore.NewResilient(remoteBackend(t, url), cachestore.NewMem(), chaosOptions(seed)))
			front, err := store.Entry(fp).Frontier(buffers)
			if err != nil {
				errc <- err
				return
			}
			opts := minimize.Options{Cache: front}
			res, err := minimize.Search(buffers, upper,
				minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(res.Caps, want) {
				errc <- errors.New("replica sizing diverged from ground truth")
				return
			}
			_, err = store.Flush()
			errc <- err
		}(uint64(100 + i))
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// A third replica reads the merged store: the racing flushes must have
	// left a fully trusted payload whose frontier is a monotone antichain
	// pair answering the whole search.
	storeC := probecache.NewStoreBackend(
		cachestore.NewResilient(remoteBackend(t, url), cachestore.NewMem(), chaosOptions(3)))
	frontC, err := storeC.Entry(fp).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	if err := frontC.SelfCheck(); err != nil {
		t.Fatalf("merged frontier is not monotone: %v", err)
	}
	st := storeC.Stats()
	if st.Loaded != 1 || st.Skipped != 0 {
		t.Fatalf("merged payload was not fully trusted: %+v", st)
	}
	opts := minimize.Options{Cache: frontC}
	res, err := minimize.Search(buffers, upper,
		minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Caps, want) {
		t.Fatalf("merged store changed the sizing: got %v, want %v", res.Caps, want)
	}
	if res.Checks != 0 {
		t.Errorf("merged store still simulated %d probes, want 0", res.Checks)
	}
}

// TestChaosCanceledContextFallsThroughToLocalSim pins the budget contract
// through the backend layer (satellite: cancellation): a canceled Context
// during a remote load aborts promptly with the typed budget error — no
// retry spin, no demotion penalty — and the probe falls through to local
// simulation, still finding the ground-truth sizing.
func TestChaosCanceledContextFallsThroughToLocalSim(t *testing.T) {
	g, buffers, upper := chaosChain(t)
	want := groundTruth(t, g, buffers, upper)
	fp := probecache.GraphKey(g, "chaos-minimize", "deadlock", "80")

	// Every op on the remote stalls for an hour unless the Context says
	// otherwise.
	stall := faultybackend.Wrap(cachestore.NewMem(), faultybackend.Spec{
		Seed: 7, LatencyOneIn: 1, Latency: time.Hour,
	})
	opt := chaosOptions(7)
	opt.OpTimeout = time.Hour // only the caller's Context may cut the op short
	res := cachestore.NewResilient(stall, cachestore.NewMem(), opt)
	store := probecache.NewStoreBackend(res)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	entry := store.EntryContext(ctx, fp)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled load took %v, want prompt abort", elapsed)
	}
	stats := res.Stats()
	if stats.Retries != 0 {
		t.Errorf("canceled load was retried %d times, want 0", stats.Retries)
	}
	if stats.Demotions != 0 {
		t.Errorf("caller cancellation counted as %d demotions, want 0", stats.Demotions)
	}

	// The entry came up cold; the search falls through to local
	// simulation and still answers correctly.
	front, err := entry.Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	opts := minimize.Options{Cache: front}
	got, err := minimize.Search(buffers, upper,
		minimize.DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Caps, want) {
		t.Fatalf("fall-through sizing diverged: got %v, want %v", got.Caps, want)
	}
	if got.Checks == 0 {
		t.Error("fall-through search simulated nothing; expected local probes")
	}

	// A flush under a pre-canceled Context reports the typed budget error
	// promptly instead of spinning against the stalled remote.
	canceled, stop := context.WithCancel(context.Background())
	stop()
	start = time.Now()
	if _, err := store.FlushContext(canceled); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("FlushContext under canceled ctx = %v, want budget.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled flush took %v, want prompt abort", elapsed)
	}
}
