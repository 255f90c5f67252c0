package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wrht"
	"wrht/internal/serve"
)

// serve-mixed: an in-process pricing server on loopback, driven by this
// process over at most nproc connections with a mix of ~90% popular
// /v1/commtime queries (Zipf over a set warmed during set-up), ~8% cold
// /v1/commtime queries with fresh node counts and sizes, and ~2% small
// elastic /v1/fabric mixes. A seeded Poisson open loop at the fixed rate
// openLoopRPS measures latency from each request's due time; a closed loop
// of nproc clients then measures capacity.

// openLoopRPS is the fixed open-loop rate: about half the closed-loop
// capacity of this mix on a 2-core x86 host, well below the knee where p99
// swings. It is a constant so that two commits are offered the same load.
const openLoopRPS = 400

const (
	popularSize     = 48
	serveCheckCount = 64
	// openShare is the share of the window given to the open loop; the
	// closed loops of closedRequests requests take about the rest.
	openShare      = 0.75
	closedRequests = 4000
)

const (
	kindWarm = iota
	kindCold
	kindFabric
)

type request struct {
	kind int
	path string
	body []byte
	comm serve.CommTimeRequest // set for /v1/commtime
}

// mixDrawer draws the traffic mix from the seed. Pricing cost depends
// mostly on the algorithm and node count, so popular and cold queries cycle
// through the paper's algorithms and walk seeded low-discrepancy sequences
// over node counts, budgets and sizes: every seed offers a comparable mix.
type mixDrawer struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	popular []request
	// cold and fabric count cold queries and fabric mixes; coldN,
	// coldBytes and fabricN walk their sizes.
	cold, fabric              int
	coldN, coldBytes, fabricN *weyl
}

func newMixDrawer(seed, stream uint64) *mixDrawer {
	prng := rand.New(rand.NewPCG(seed, 0x5eed0004))
	d := &mixDrawer{rng: rand.New(rand.NewPCG(seed, stream))}
	d.coldN, d.coldBytes, d.fabricN = newWeyl(d.rng, goldenStep), newWeyl(d.rng, sqrt2Step), newWeyl(d.rng, goldenStep)
	algs := wrht.PaperAlgorithms()
	models := paperModels()
	nodes, off := newWeyl(prng, goldenStep), prng.IntN(len(algs))
	for i := 0; i < popularSize; i++ {
		d.popular = append(d.popular, commRequest(kindWarm, serve.CommTimeRequest{
			Nodes:       nodesAt(nodes.next(), 6, 11),
			Wavelengths: []int{0, 8, 16, 32}[(i/len(algs))%4],
			Algorithm:   algs[(i+off)%len(algs)],
			Bytes:       wrht.MustModel(models[prng.IntN(len(models))]).Bytes,
		}))
	}
	// Zipf ranks are shuffled so the hottest queries are not always the
	// same algorithm.
	prng.Shuffle(len(d.popular), func(i, j int) { d.popular[i], d.popular[j] = d.popular[j], d.popular[i] })
	d.zipf = rand.NewZipf(d.rng, 1.1, 1, popularSize-1)
	return d
}

func commRequest(kind int, r serve.CommTimeRequest) request {
	body, _ := json.Marshal(r) // a struct of plain fields always encodes
	return request{kind: kind, path: "/v1/commtime", body: body, comm: r}
}

func (d *mixDrawer) next() request {
	rng := d.rng
	switch u := rng.Float64(); {
	case u < 0.90:
		return d.popular[d.zipf.Uint64()]
	case u < 0.98:
		algs := wrht.PaperAlgorithms()
		d.cold++
		return commRequest(kindCold, serve.CommTimeRequest{
			Nodes:       nodesAt(d.coldN.next(), 8, 10),
			Wavelengths: []int{0, 8, 16}[(d.cold/len(algs))%3],
			Algorithm:   algs[d.cold%len(algs)],
			Bytes:       int64(math.Exp2(20 + 8*d.coldBytes.next())),
		})
	default:
		models := paperModels()
		d.fabric++
		fr := serve.FabricRequest{
			Nodes: nodesAt(d.fabricN.next(), 4, 5), Wavelengths: 8,
			Policy: wrht.FabricPolicy{Kind: wrht.FabricElastic, ReconfigDelaySec: 5e-6},
		}
		for j := 0; j < 3; j++ {
			fr.Jobs = append(fr.Jobs, wrht.JobSpec{
				Model: models[(d.fabric+j)%len(models)], ArrivalSec: 1e-3 * rng.Float64(),
				Iterations: 2, MaxWavelengths: 2 + (d.fabric+j)%4,
			})
		}
		body, _ := json.Marshal(fr) // plain fields always encode
		return request{kind: kindFabric, path: "/v1/fabric", body: body}
	}
}

// handlerTimer wraps the server's handler to time each request inside the
// server, keyed by the X-Bench-Req header, and to record a serve span under
// the client span named by X-Bench-Span.
type handlerTimer struct {
	next http.Handler
	tr   atomic.Pointer[Tracer]
	mu   sync.Mutex
	dur  map[int]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
	var sp int
	if parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span")); parent != 0 {
		sp = h.tr.Load().Begin(parent, "serve", "serve.Server.Handler")
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if sp != 0 {
		h.tr.Load().End(sp)
	}
	h.mu.Lock()
	h.dur[id] = d
	h.mu.Unlock()
}

func (h *handlerTimer) take(id int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.dur[id]
	delete(h.dur, id)
	return d, ok
}

// server is one in-process pricing server on loopback.
type server struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	timer  *handlerTimer
	done   chan error
	client *http.Client
}

func startServer(timed bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = s.srv.Handler()
	if timed {
		s.timer = &handlerTimer{next: h, dur: map[int]time.Duration{}}
		h = s.timer
	}
	s.http = &http.Server{Handler: h}
	go func() { s.done <- s.http.Serve(ln) }()
	procs := runtime.NumCPU()
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true,
		},
	}
	return s, nil
}

// stop drains the pricing server and shuts the HTTP server down, waiting
// for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.srv.Drain(ctx); err != nil {
		return err
	}
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and returns the status and body; reqID and span
// tag the request for the handler timer.
func (s *server) do(r request, reqID, span int) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, s.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Bench-Req", strconv.Itoa(reqID))
	if span != 0 {
		hr.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// serveSetup boots a server and warms the popular set through it.
func serveSetup(seed uint64, timed bool) (*server, *mixDrawer, error) {
	s, err := startServer(timed)
	if err != nil {
		return nil, nil, err
	}
	d := newMixDrawer(seed, 0x5eed0005)
	for i, r := range d.popular {
		st, body, err := s.do(r, -1-i, 0)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("warming %s: status %d: %s", r.body, st, body)
		}
		if err != nil {
			return nil, nil, errors.Join(err, s.stop())
		}
	}
	return s, d, nil
}

// tick is one open-loop arrival and what became of it.
type tick struct {
	due     time.Duration
	req     request
	sent    time.Duration
	done    time.Duration
	status  int
	err     bool
	unsent  bool
	handler time.Duration
	body    []byte
}

// openLoop offers the ticks on their schedule over procs connections. A
// tick that finds the send queue full, or is still queued when the grace
// period after the last due time ends, is not sent and counts as failed;
// every sent tick is timed from its due time.
func openLoop(s *server, ticks []tick, keep map[int]bool) {
	procs := runtime.NumCPU()
	// The queue holds up to one second of arrivals: a longer backlog means
	// the server is saturated and further ticks are counted unsent.
	queue := make(chan int, openLoopRPS)
	start := time.Now()
	grace := ticks[len(ticks)-1].due + 3*time.Second
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				t := &ticks[i]
				if t.sent = time.Since(start); t.sent > grace {
					t.unsent = true
					continue
				}
				st, body, err := s.do(t.req, i, 0)
				t.done = time.Since(start)
				t.status, t.err = st, err != nil
				if s.timer != nil {
					t.handler, _ = s.timer.take(i)
				}
				if keep[i] {
					t.body = body
				}
			}
		}()
	}
	for i := range ticks {
		if d := ticks[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		select {
		case queue <- i:
		default:
			ticks[i].unsent = true
		}
	}
	close(queue)
	wg.Wait()
}

// closedLoop sends n requests from procs clients, each sending its next
// request when the previous one returns, and returns the number of 200
// responses and the time taken. The count is fixed rather than the time:
// the server's session caches keep every cold query, so a fixed count
// bounds the memory a run takes.
func closedLoop(s *server, d *mixDrawer, n int) (ok int64, elapsed time.Duration) {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = d.next()
	}
	var next, nOK atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				if st, _, err := s.do(reqs[i], 0, 0); err == nil && st == http.StatusOK {
					nOK.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return nOK.Load(), time.Since(start)
}

// capacityRuns is how many closed loops measure capacity; each runs on its
// own freshly warmed server and saturated_rps is their median, because
// one closed loop lasts well under a second.
const capacityRuns = 8

func measureCapacity(seed uint64, o *outcome) error {
	var rps []float64
	for i := 0; i < capacityRuns; i++ {
		s, _, err := serveSetup(seed, false)
		if err != nil {
			return err
		}
		ok, elapsed := closedLoop(s, newMixDrawer(seed, 0x5eed0008+uint64(i)), closedRequests)
		if err := s.stop(); err != nil {
			return err
		}
		o.Attempted += closedRequests
		o.Failed += closedRequests - int(ok)
		rps = append(rps, float64(ok)/elapsed.Seconds())
	}
	o.Items = median(rps)
	o.Named["saturated_rps"] = o.Items
	return nil
}

// openTicks draws the open loop's Poisson arrivals over dur, and the
// seeded sample of /v1/commtime ticks whose responses are checked.
func openTicks(seed uint64, d *mixDrawer, dur time.Duration) ([]tick, map[int]bool) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0006))
	var ticks []tick
	var comm []int
	for t := rng.ExpFloat64() / openLoopRPS; t < dur.Seconds(); t += rng.ExpFloat64() / openLoopRPS {
		r := d.next()
		if r.path == "/v1/commtime" {
			comm = append(comm, len(ticks))
		}
		ticks = append(ticks, tick{due: time.Duration(t * float64(time.Second)), req: r})
	}
	rng.Shuffle(len(comm), func(i, j int) { comm[i], comm[j] = comm[j], comm[i] })
	keep := map[int]bool{}
	for _, i := range comm[:min(serveCheckCount, len(comm))] {
		keep[i] = true
	}
	return ticks, keep
}

// checkServed compares each kept 200 response with a direct
// CommunicationTime of the same request; it returns the number checked and
// the number that differ, and digests the direct results.
func checkServed(ticks []tick, keep map[int]bool, dg *digest) (checked, bad int, err error) {
	for i := range ticks {
		t := &ticks[i]
		if !keep[i] || t.status != http.StatusOK {
			continue
		}
		var resp serve.CommTimeResponse
		if err := json.Unmarshal(t.body, &resp); err != nil {
			return 0, 0, err
		}
		c := t.req.comm
		cfg := wrht.DefaultConfig(c.Nodes)
		if c.Wavelengths > 0 {
			cfg.Optical.Wavelengths = c.Wavelengths
		}
		direct, err := wrht.CommunicationTime(cfg, c.Algorithm, c.Bytes)
		if err != nil {
			return 0, 0, err
		}
		checked++
		if direct != resp.Result {
			bad++
			fmt.Printf("serve-mixed check: %s: served %+v, direct %+v\n", t.req.body, resp.Result, direct)
		}
		dg.str(fmt.Sprintf("%+v", direct))
	}
	return checked, bad, nil
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}}
	var s *server
	var d *mixDrawer
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, d, err = serveSetup(cfg.Seed, cfg.Trace); err != nil {
			return nil, err
		}
		o.Setup = append(o.Setup, time.Since(t0).Seconds())
	}
	if !cfg.Trace {
		if err := measureCapacity(cfg.Seed, o); err != nil {
			return nil, errors.Join(err, s.stop())
		}
	}
	openDur := time.Duration(openShare * cfg.Seconds * float64(time.Second))
	ticks, keep := openTicks(cfg.Seed, d, openDur)
	openLoop(s, ticks, keep)

	var lat, lag []float64
	for _, t := range ticks {
		o.Attempted++
		if t.unsent || t.err || t.status != http.StatusOK {
			o.Failed++
		}
		if !t.unsent {
			lat = append(lat, (t.done-t.due).Seconds()*1e3)
			lag = append(lag, (t.sent-t.due).Seconds()*1e3)
		}
	}
	o.P50 = median(lat)
	o.Named["p50_ms"], o.Named["p99_ms"] = o.P50, quantile(lat, 0.99)
	o.Named["open_loop_rps"] = openLoopRPS
	o.Named["open_samples"] = float64(len(lat))

	var err error
	if cfg.Trace {
		err = traceServe(s, ticks, lat, lag, o)
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	dg := newDigest()
	checked, bad, err := checkServed(ticks, keep, dg)
	if err != nil {
		return nil, err
	}
	o.Attempted += checked
	o.Failed += bad
	o.Digest = dg.hex()
	return o, nil
}

// serveTracedRequests is how many of the open loop's requests the traced
// pass replays one at a time.
const serveTracedRequests = 300

// traceServe reports the per-layer serve metrics of the open loop just run
// through the timed handler, then replays its first requests one at a time
// with a client span around each call and a serve span inside the handler
// (untraced first, for the overhead).
func traceServe(s *server, ticks []tick, lat, lag []float64, o *outcome) error {
	L := map[string]float64{"serve.p99_ms": quantile(lat, 0.99)}
	var handler, transport, warm, cold []float64
	busy := 0.0
	for _, t := range ticks {
		if t.unsent || t.err {
			continue
		}
		h := t.handler.Seconds() * 1e3
		handler = append(handler, h)
		busy += t.handler.Seconds()
		transport = append(transport, (t.done-t.sent).Seconds()*1e3-h)
		lat := (t.done - t.due).Seconds() * 1e3
		switch t.req.kind {
		case kindWarm:
			warm = append(warm, lat)
		case kindCold:
			cold = append(cold, lat)
		}
	}
	L["serve.handler_p50_ms"] = quantile(handler, 0.5)
	L["serve.handler_p99_ms"] = quantile(handler, 0.99)
	L["serve.handler_busy_s"] = busy
	L["serve.transport_p50_ms"] = quantile(transport, 0.5)
	L["serve.warm_p50_ms"] = quantile(warm, 0.5)
	L["serve.cold_p50_ms"] = quantile(cold, 0.5)
	L["serve.cold_p99_ms"] = quantile(cold, 0.99)
	L["serve.gen_lag_p99_ms"] = quantile(lag, 0.99)
	unsent := 0
	for _, t := range ticks {
		if t.unsent {
			unsent++
		}
	}
	L["serve.unsent"] = float64(unsent)
	m := s.srv.Metrics()
	for name, v := range m.Counters {
		for _, p := range []struct{ prefix, metric string }{
			{"serve.coalesced.", "serve.coalesced"},
			{"serve.shed.", "serve.shed"},
			{"serve.deadline.", "serve.deadline_exceeded"},
		} {
			if len(name) > len(p.prefix) && name[:len(p.prefix)] == p.prefix {
				L[p.metric] += float64(v)
			}
		}
	}
	var st wrht.CacheStats
	for _, sh := range m.Shards {
		st.PlanHits += sh.PlanHits
		st.PlanBuilds += sh.PlanBuilds
		st.ScheduleHits += sh.ScheduleHits
		st.ScheduleBuilds += sh.ScheduleBuilds
		st.SimulationHits += sh.SimulationHits
		st.SimulationRuns += sh.SimulationRuns
	}
	L["exp.plan_hit_frac"] = frac(float64(st.PlanHits), float64(st.PlanHits+st.PlanBuilds))
	L["exp.sched_hit_frac"] = frac(float64(st.ScheduleHits), float64(st.ScheduleHits+st.ScheduleBuilds))
	L["exp.sim_hit_frac"] = frac(float64(st.SimulationHits), float64(st.SimulationHits+st.SimulationRuns))

	pass := func(tr *Tracer) (int, float64, error) {
		s.timer.tr.Store(tr)
		t0 := time.Now()
		root := tr.Begin(0, "", "serve-mixed.replay")
		for i := range ticks[:min(serveTracedRequests, len(ticks))] {
			r := ticks[i].req
			sp := tr.Begin(root, "transport", "POST "+r.path)
			st, _, err := s.do(r, len(ticks)+i, sp)
			tr.End(sp)
			s.timer.take(len(ticks) + i)
			if err != nil {
				return 0, 0, err
			}
			o.Attempted++
			if st != http.StatusOK {
				o.Failed++
			}
		}
		tr.End(root)
		return root, time.Since(t0).Seconds(), nil
	}
	_, untraced, err := pass(nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	root, _, err := pass(tr)
	if err != nil {
		return err
	}
	ledger := tr.Ledger(root)
	addLedger(L, ledger, untraced)
	o.Layers, o.Ledger, o.Tracer = L, &ledger, tr
	return nil
}
