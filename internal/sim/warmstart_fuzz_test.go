package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
)

// FuzzWarmStartDifferential is the warm-start correctness oracle: across
// random chains, workloads, checkpoint configurations, capacity-probe
// sequences, fault injections and sink scheduling modes (ASAP, Periodic,
// and PeriodicQuiescent, whose resolved offset checkpoints carry), a
// machine that warm-starts between probes
// must produce bit-identical Results — outcome, end tick, event count,
// firing start times, per-edge statistics, underrun and deadlock
// diagnostics — to a machine that cold-resets before every run. This is the
// executable form of the ResetWarm validity argument (prefix coincidence
// under the per-edge running-minimum and minimum-shortfall guards).
func FuzzWarmStartDifferential(f *testing.F) {
	f.Add(int64(1), int64(1), false)
	f.Add(int64(2), int64(9), true)
	f.Add(int64(5), int64(3), false)
	f.Add(int64(10), int64(0), true)
	f.Add(int64(12), int64(6), false)
	f.Add(int64(25), int64(14), true)
	f.Add(int64(6), int64(5), false)
	f.Fuzz(func(t *testing.T, seed, capSeed int64, faulty bool) {
		gcfg := graphgen.Defaults(seed)
		gcfg.ZeroConsumption = seed%5 == 0
		g, c, err := graphgen.Random(gcfg)
		if err != nil {
			t.Skip()
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil || !res.Valid {
			t.Skip()
		}
		sized, err := capacity.Sized(g, res)
		if err != nil {
			t.Skip()
		}
		cfg, mapping, err := TaskGraphConfig(sized, UniformWorkloads(sized, seed))
		if err != nil {
			t.Skip()
		}
		cfg.Stop = Stop{Actor: c.Task, Firings: 400}
		cfg.MaxEvents = 2_000_000
		for _, task := range sized.Tasks() {
			cfg.RecordStarts = append(cfg.RecordStarts, task.Name)
		}
		switch capSeed % 3 {
		case 0:
			// Periodic sink variant: lowered capacities can underrun, and
			// the underrun diagnostics must agree between warm and cold.
			offset := c.Period.MulInt(int64(len(sized.Tasks())) * 4)
			cfg.Actors = map[string]ActorConfig{
				c.Task: {Mode: Periodic, Offset: offset, Period: c.Period},
			}
		case 2:
			// Held sink: the offset is resolved at quiescence, which a
			// warm start must reproduce from the checkpoint it resumes.
			cfg.Actors = map[string]ActorConfig{
				c.Task: {Mode: PeriodicQuiescent, Period: c.Period},
			}
		}
		if faulty {
			// Fault injection: per-firing execution-time jitter, half the
			// time with overruns beyond ρ (a stalled-firing fault mode).
			if cfg.Actors == nil {
				cfg.Actors = make(map[string]ActorConfig)
			}
			cfg.AllowOverrun = seed%2 == 1
			for _, task := range sized.Tasks() {
				rho := task.WCRT
				half := rho.DivInt(2)
				overrun := rho.MulInt(3).DivInt(2)
				exec := func(k int64) ratio.Rat {
					if cfg.AllowOverrun && k%7 == 3 {
						return overrun
					}
					if k%2 == 0 {
						return half
					}
					return rho
				}
				ac := cfg.Actors[task.Name]
				ac.Exec = exec
				cfg.Actors[task.Name] = ac
				cfg.ExtraTimes = append(cfg.ExtraTimes, half, overrun)
			}
		}
		if capSeed%5 == 0 && len(mapping.Pairs) > 0 {
			// Occupancy recording refuses warm starts on the recorded
			// edge; the fallback must still agree with cold runs.
			cfg.RecordOccupancy = []string{mapping.Pairs[0].Data}
		}

		warmCfg := cfg
		warmCfg.Checkpoints = int(1 + (capSeed%4+4)%4)
		warm, err := Compile(warmCfg)
		if err != nil {
			t.Skip()
		}
		cold, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// A probe sequence over the buffers' space edges, starting at the
		// Equation-4 capacities and randomly nudging one buffer at a time —
		// the same access pattern a minimisation search produces.
		rnd := rand.New(rand.NewSource(capSeed ^ seed<<17))
		byName := make(map[string]int64)
		for _, b := range sized.Buffers() {
			byName[b.DefaultName()] = b.Capacity
		}
		caps := make(map[string]int64, len(mapping.Pairs))
		for _, p := range mapping.Pairs {
			caps[p.Space] = byName[p.Buffer]
		}
		for probe := 0; probe < 6; probe++ {
			if probe > 0 {
				p := mapping.Pairs[rnd.Intn(len(mapping.Pairs))]
				next := caps[p.Space] + int64(rnd.Intn(5)-2)
				if next < 1 {
					next = 1
				}
				caps[p.Space] = next
			}
			ov := make(map[string]int64, len(caps))
			for k, v := range caps {
				ov[k] = v
			}
			var resumed int64
			if probe == 0 {
				if _, err := warm.ResetWarm(ov); err != nil {
					t.Fatal(err)
				}
			} else if resumed, err = warm.ResetWarm(ov); err != nil {
				t.Fatal(err)
			}
			if err := cold.Reset(ov); err != nil {
				t.Fatal(err)
			}
			wres, werr := warm.Run()
			cres, cerr := cold.Run()
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("probe %d: warm err %v, cold err %v", probe, werr, cerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(cres, wres) {
				t.Fatalf("probe %d (caps %v, resumed %d events): warm run diverged from cold\ncold: %+v\nwarm: %+v",
					probe, caps, resumed, cres, wres)
			}
		}
	})
}
