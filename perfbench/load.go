package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's size: vrdfserve's callers (design scripts,
// CI jobs, the CLI) wait for each reply before sending the next, and the
// reference machine has two CPUs.
const clients = 2

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClients(base string) []*client {
	out := make([]*client, clients)
	for i := range out {
		out[i] = &client{base: base, http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// post sends one request and reads the whole reply.
func (c *client) post(r request) (int, []byte, error) {
	resp, err := c.http.Post(c.base+r.Path, "text/plain", bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sample is a response kept for the post-run deep checks.
type sample struct {
	req  request
	body []byte
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	attempted, failed int
	latMS             []float64 // sorted, successful requests only
	wall              time.Duration
	failures          []string // the first few failure messages
	samples           []sample
}

func (l *loadResult) completed() int { return l.attempted - l.failed }

const maxFailureNotes = 5

// drive runs the closed loop: every client takes the next request index,
// sends it, waits for the reply and checks it, until the phase ends. A
// phase ends after n requests when n > 0, else when dur has elapsed; a
// request in flight at the deadline completes and counts. Latency covers
// send to last reply byte; generation and checking stay outside it.
func drive(cs []*client, n int, dur time.Duration, next func(i int) (request, error), chk *checker, keep func(i int) bool) (*loadResult, error) {
	var (
		idx   atomic.Int64
		mu    sync.Mutex
		res   = &loadResult{}
		wg    sync.WaitGroup
		gErr  error
		start = time.Now()
	)
	deadline := start.Add(dur)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var lat []float64
			var attempted, failed int
			var notes []string
			var kept []sample
			defer func() {
				mu.Lock()
				res.latMS = append(res.latMS, lat...)
				res.attempted += attempted
				res.failed += failed
				res.failures = append(res.failures, notes...)
				res.samples = append(res.samples, kept...)
				mu.Unlock()
			}()
			for {
				i := int(idx.Add(1) - 1)
				if (n > 0 && i >= n) || (n <= 0 && !time.Now().Before(deadline)) {
					return
				}
				r, err := next(i)
				if err != nil {
					mu.Lock()
					gErr = fmt.Errorf("generate request %d: %w", i, err)
					mu.Unlock()
					return
				}
				attempted++
				t0 := time.Now()
				status, body, err := c.post(r)
				d := time.Since(t0)
				if err == nil {
					err = chk.check(r, status, body)
				}
				if err != nil {
					failed++
					if len(notes) < maxFailureNotes {
						notes = append(notes, fmt.Sprintf("request %d %.100s: %v", i, r.Path, err))
					}
					continue
				}
				lat = append(lat, float64(d)/float64(time.Millisecond))
				if keep != nil && keep(i) {
					kept = append(kept, sample{req: r, body: body})
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	if gErr != nil {
		return nil, gErr
	}
	sort.Float64s(res.latMS)
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].req.Index < res.samples[j].req.Index })
	return res, nil
}
