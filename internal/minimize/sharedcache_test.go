package minimize

import (
	"reflect"
	"strings"
	"testing"

	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func sharedCacheChain(t *testing.T) (*taskgraph.Graph, []string, map[string]int64) {
	t.Helper()
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)},
			{Name: "c", WCRT: r(1, 1)},
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

// TestSearchWarmSharedCache pins the cross-search contract of the tentpole:
// a second search against a frontier warmed by an identical first search
// answers every probe from the cache — zero simulations — and still finds
// the identical assignment.
func TestSearchWarmSharedCache(t *testing.T) {
	g, buffers, upper := sharedCacheChain(t)
	frontier := probecache.NewFrontier(buffers)
	opts := Options{Cache: frontier}
	check := DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts)

	cold, err := Search(buffers, upper, check, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Checks == 0 {
		t.Fatal("cold search simulated nothing")
	}
	warm, err := Search(buffers, upper, check, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Caps, warm.Caps) {
		t.Fatalf("warm cache changed the result: cold %v, warm %v", cold.Caps, warm.Caps)
	}
	if warm.Checks != 0 {
		t.Errorf("warm search still simulated %d probes", warm.Checks)
	}
	if warm.CacheHits == 0 {
		t.Error("warm search reported no cache hits")
	}

	// And against the no-cache ground truth.
	plainOpts := Options{NoCache: true}
	plain, err := Search(buffers, upper,
		DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, plainOpts), plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Caps, warm.Caps) {
		t.Fatalf("shared cache diverged from uncached search: %v vs %v", warm.Caps, plain.Caps)
	}
}

// TestSearchSharedCacheSerialParallelParity pins that a shared frontier
// never changes what concurrent searches find, on seeded random chains
// whose shared check warm-starts its probe machines from checkpoints: the
// machine pools are shared by the concurrent searches too.
func TestSearchSharedCacheSerialParallelParity(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, c, buffers, upper := randomChain(t, seed+700)
		concurrentSearches(t, g, c.Task, buffers, upper,
			[]sim.Workloads{sim.UniformWorkloads(g, seed)}, Options{Checkpoints: 8})
	}
}

func TestSearchSharedCacheOrderMismatch(t *testing.T) {
	g, buffers, upper := sharedCacheChain(t)
	frontier := probecache.NewFrontier([]string{buffers[1], buffers[0]})
	_, err := Search(buffers, upper,
		DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}),
		Options{Cache: frontier})
	if err == nil || !strings.Contains(err.Error(), "shared cache") {
		t.Errorf("mismatched cache order accepted: %v", err)
	}
}

// TestSearchNoCacheWinsOverCache pins the documented precedence: NoCache
// forces simulation even when a warm shared frontier is supplied.
func TestSearchNoCacheWinsOverCache(t *testing.T) {
	g, buffers, upper := sharedCacheChain(t)
	frontier := probecache.NewFrontier(buffers)
	warmOpts := Options{Cache: frontier}
	if _, err := Search(buffers, upper,
		DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, warmOpts), warmOpts); err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: frontier, NoCache: true}
	res, err := Search(buffers, upper,
		DeadlockFreeCheck(g, "c", 80, []sim.Workloads{{}}, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Errorf("NoCache search reported %d cache hits", res.CacheHits)
	}
	if res.Checks == 0 {
		t.Error("NoCache search simulated nothing")
	}
}
