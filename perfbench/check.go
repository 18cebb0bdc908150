package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"vrdfcap"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
)

// Response shapes of /v1/minimize and /v1/sweep. Field order and tags
// follow internal/serve, so encoding one of these reproduces the server's
// bytes (the traced replay relies on that).
type minimizeBuffer struct {
	Name     string `json:"name"`
	Analytic int64  `json:"analytic"`
	Minimal  int64  `json:"minimal"`
}

type minimizeResponse struct {
	Valid         bool             `json:"valid"`
	Policy        string           `json:"policy"`
	Task          string           `json:"task"`
	Period        string           `json:"period"`
	Firings       int64            `json:"firings"`
	Seed          int64            `json:"seed"`
	Buffers       []minimizeBuffer `json:"buffers,omitempty"`
	AnalyticTotal int64            `json:"analyticTotal"`
	MinimalTotal  int64            `json:"minimalTotal"`
	Diagnostics   []string         `json:"diagnostics,omitempty"`
}

type sweepPoint struct {
	Period string `json:"period"`
	Valid  bool   `json:"valid"`
	Total  int64  `json:"total"`
}

type sweepResponse struct {
	Task   string       `json:"task"`
	Policy string       `json:"policy"`
	Points []sweepPoint `json:"points"`
}

// The §5 figures: Eq. (4) capacities of d1, d2, d3 at 1/44100 (d3 is the
// documented 883-for-882 off-by-one) and the sweep total at that period.
var mp3Analytic = []int64{6015, 3263, 883}

const mp3Total = 6015 + 3263 + 883

const policyName = "equation4"

// checker judges responses. primed holds, on warm-mix, the body recorded
// for each problem during priming.
type checker struct {
	primed [][]byte
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("response does not decode: %v", err)
	}
	return nil
}

// check runs the per-response checks that every request gets.
func (c *checker) check(r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if r.Problem >= 0 {
		if !bytes.Equal(body, c.primed[r.Problem]) {
			return fmt.Errorf("warm response differs from the body primed for problem %d", r.Problem)
		}
		return nil
	}
	switch r.Endpoint {
	case epMinimize:
		_, err := checkMinimize(r, body)
		return err
	default:
		_, err := checkSweep(r, body)
		return err
	}
}

// checkMinimize checks the response shape, minimal ≤ analytic for every
// buffer, the buffer list against the document, and the analytic
// capacities against vrdfcap.Analyze on the same document.
func checkMinimize(r request, body []byte) (*minimizeResponse, error) {
	var resp minimizeResponse
	if err := decodeStrict(body, &resp); err != nil {
		return nil, err
	}
	g, con, err := vrdfcap.DecodeGraph(r.Body)
	if err != nil {
		return nil, fmt.Errorf("request document: %v", err)
	}
	sized, res, err := vrdfcap.Size(g, *con, vrdfcap.PolicyEquation4)
	if err != nil {
		return nil, fmt.Errorf("in-process analysis: %v", err)
	}
	switch {
	case !resp.Valid || !res.Valid:
		return nil, fmt.Errorf("valid=%v, in-process analysis valid=%v", resp.Valid, res.Valid)
	case resp.Policy != policyName || resp.Task != con.Task || resp.Period != con.Period.String():
		return nil, fmt.Errorf("echo (%s, %s, %s) does not match the request", resp.Policy, resp.Task, resp.Period)
	case resp.Firings != r.Firings || resp.Seed != r.Seed:
		return nil, fmt.Errorf("echo firings=%d seed=%d, sent %d and %d", resp.Firings, resp.Seed, r.Firings, r.Seed)
	case len(resp.Buffers) != len(sized.Buffers()):
		return nil, fmt.Errorf("%d buffers, the document has %d", len(resp.Buffers), len(sized.Buffers()))
	}
	var analytic, minimal int64
	for i, b := range sized.Buffers() {
		got := resp.Buffers[i]
		switch {
		case got.Name != b.DefaultName():
			return nil, fmt.Errorf("buffer %d is %q, the document's is %q", i, got.Name, b.DefaultName())
		case got.Analytic != b.Capacity:
			return nil, fmt.Errorf("buffer %s analytic %d, vrdfcap.Analyze says %d", got.Name, got.Analytic, b.Capacity)
		case got.Minimal < 1 || got.Minimal > got.Analytic:
			return nil, fmt.Errorf("buffer %s minimal %d outside 1..analytic %d", got.Name, got.Minimal, got.Analytic)
		case r.MP3 && got.Analytic != mp3Analytic[i]:
			return nil, fmt.Errorf("§5 buffer %s analytic %d, want %d", got.Name, got.Analytic, mp3Analytic[i])
		}
		analytic += got.Analytic
		minimal += got.Minimal
	}
	if resp.AnalyticTotal != analytic || resp.MinimalTotal != minimal {
		return nil, fmt.Errorf("totals %d/%d, buffers sum to %d/%d", resp.AnalyticTotal, resp.MinimalTotal, analytic, minimal)
	}
	return &resp, nil
}

// checkSweep checks one point per requested period in request order,
// validity that never returns to invalid as the period grows, totals that
// never increase across valid points, and the §5 total at 1/44100.
func checkSweep(r request, body []byte) (*sweepResponse, error) {
	var resp sweepResponse
	if err := decodeStrict(body, &resp); err != nil {
		return nil, err
	}
	if resp.Policy != policyName || resp.Task != r.Task {
		return nil, fmt.Errorf("echo (%s, %s), want (%s, %s)", resp.Policy, resp.Task, policyName, r.Task)
	}
	if len(resp.Points) != len(r.Periods) {
		return nil, fmt.Errorf("%d points for %d periods", len(resp.Points), len(r.Periods))
	}
	oneOver44100 := ratio.MustNew(1, 44100)
	var seenValid bool
	var lastTotal int64
	for i, pt := range resp.Points {
		p, err := ratio.Parse(pt.Period)
		if err != nil || !p.Equal(r.Periods[i]) {
			return nil, fmt.Errorf("point %d has period %q, requested %s", i, pt.Period, r.Periods[i])
		}
		if r.MP3 && p.Equal(oneOver44100) && (!pt.Valid || pt.Total != mp3Total) {
			return nil, fmt.Errorf("§5 point at 1/44100 is valid=%v total %d, want a valid %d", pt.Valid, pt.Total, mp3Total)
		}
		if !pt.Valid {
			if seenValid {
				return nil, fmt.Errorf("point %d (%s) is invalid after a valid point at a shorter period", i, pt.Period)
			}
			continue
		}
		if seenValid && pt.Total > lastTotal {
			return nil, fmt.Errorf("point %d (%s) total %d exceeds %d at a shorter period", i, pt.Period, pt.Total, lastTotal)
		}
		seenValid, lastTotal = true, pt.Total
	}
	return &resp, nil
}

// deepCheck runs the sampled checks that simulate or recompute.
//
// Minimize: the analytic capacities sustain the constraint under every
// adversarial workload of sim.AdversarialWorkloads, and the minimal ones
// under the request's own seed and firings. Sweep: the points equal an
// in-process capacity.SweepPeriodsOpt.
func deepCheck(r request, body []byte) error {
	g, con, err := vrdfcap.DecodeGraph(r.Body)
	if err != nil {
		return fmt.Errorf("request document: %v", err)
	}
	if r.Endpoint == epSweep {
		resp, err := checkSweep(r, body)
		if err != nil {
			return err
		}
		pts, err := capacity.SweepPeriodsOpt(g, con.Task, r.Periods, capacity.PolicyEquation4,
			capacity.SweepOptions{Parallel: 1, NoCache: true})
		if err != nil {
			return fmt.Errorf("in-process sweep: %v", err)
		}
		for i, pt := range pts {
			got := resp.Points[i]
			if got.Valid != pt.Valid || got.Total != pt.Total {
				return fmt.Errorf("point %s: served valid=%v total=%d, in-process valid=%v total=%d",
					got.Period, got.Valid, got.Total, pt.Valid, pt.Total)
			}
		}
		return nil
	}
	resp, err := checkMinimize(r, body)
	if err != nil {
		return err
	}
	sized, _, err := vrdfcap.Size(g, *con, vrdfcap.PolicyEquation4)
	if err != nil {
		return err
	}
	for _, adv := range sim.Adversaries {
		v, err := vrdfcap.Verify(sized, *con, vrdfcap.VerifyOptions{
			Firings: r.Firings, Workloads: sim.AdversarialWorkloads(sized, adv), LiteResult: true,
		})
		if err != nil {
			return fmt.Errorf("verify analytic under %s: %v", adv, err)
		}
		if !v.OK {
			return fmt.Errorf("analytic capacities fail under the %s adversary", adv)
		}
	}
	minimal := sized.Clone()
	for i, b := range minimal.Buffers() {
		b.Capacity = resp.Buffers[i].Minimal
	}
	v, err := vrdfcap.Verify(minimal, *con, vrdfcap.VerifyOptions{
		Firings: r.Firings, Workloads: vrdfcap.UniformWorkloads(minimal, r.Seed), LiteResult: true,
	})
	if err != nil {
		return fmt.Errorf("verify minimal: %v", err)
	}
	if !v.OK {
		return fmt.Errorf("minimal capacities fail under the request's own seed %d", r.Seed)
	}
	return nil
}
