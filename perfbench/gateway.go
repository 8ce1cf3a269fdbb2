package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/query"
)

// gatewaySize parameterises gateway-reads.
type gatewaySize struct {
	nodes int
	// ringSamples is shorter than the paper default so that windows
	// older than half an hour are answered from the tsdb store.
	ringSamples int
	history     time.Duration // simulated churn generated during set-up
	ratePerSec  float64       // offered HTTP request rate
	// simStep advances every simTick of wall time: simulated time keeps
	// moving at a fixed ratio while reads are served.
	simStep, simTick time.Duration
	// solo is how far the stack advances after the reads, with no reader
	// running, to measure host_cpu_ms_per_sim_s: a multiple of the stores'
	// maintenance period (storeSyncInterval), so every run holds the same
	// number of maintenance passes, and short enough that a 20-s run ends
	// it before the stores seal their first block (4096 samples, 8192
	// sim-s at one sample per 2 s).
	solo          time.Duration
	keys          int           // distinct request keys (> the 1024-entry LRU)
	limit         time.Duration // latency limit; slower answers count as failed
	checkPerRoute int           // keys compared byte for byte with direct calls
	setupReps     int
	trace         traceParams
}

func gatewayParams(toy bool) gatewaySize {
	if toy {
		return gatewaySize{
			nodes: 8, ringSamples: 150, history: 600 * time.Second, ratePerSec: 50,
			simStep: time.Second, simTick: 100 * time.Millisecond, solo: 200 * time.Second, keys: 300,
			limit: 2 * time.Second, checkPerRoute: 2, setupReps: 1,
			trace: traceParams{
				HorizonSec: 1800, RatePerSec: 0.05, DayLenSec: 86400, DiurnalAmp: 0.5,
				MaxNodes: 4, RepFactors: []float64{0.5, 1},
			},
		}
	}
	return gatewaySize{
		nodes: 64, ringSamples: 900, history: 3600 * time.Second, ratePerSec: 90,
		simStep: 4 * time.Second, simTick: 100 * time.Millisecond, solo: 3600 * time.Second, keys: 6000,
		limit: 2 * time.Second, checkPerRoute: 8, setupReps: 5,
		trace: traceParams{
			HorizonSec: 9000, RatePerSec: 0.04, DayLenSec: 86400, DiurnalAmp: 0.5,
			BurstGapSec: 600, BurstLenSec: 60, BurstFactor: 3, MaxNodes: 16,
			RepFactors: []float64{0.5, 1},
		},
	}
}

// Routes of the read mix.
const (
	routeJobAgg = "jobagg"
	routeJobRaw = "jobraw"
	routeNode   = "node"
	routeQuery  = "query"
)

var routes = []string{routeJobAgg, routeJobRaw, routeNode, routeQuery}

// queryShapes are the /v1/query expressions of the mix; %s is the range.
var queryShapes = []string{
	"avg(avg_over_time(node_power_watts[%s]))",
	"max by (job) (max_over_time(node_power_watts[%s]))",
	"sum by (rank) (avg_over_time(node_power_watts[%s]))",
	"topk(3, max_over_time(node_power_watts[%s]))",
}

// queryRanges are the query windows: 1 minute to 1 hour.
var queryRanges = []struct {
	name string
	sec  float64
}{{"1m", 60}, {"10m", 600}, {"1h", 3600}}

// readKey is one distinct request of the mix.
type readKey struct {
	route string
	path  string // URL path and query
	// Direct-call parameters for the byte-identity check.
	jobID      uint64
	rank       int32
	start, end float64
	expr       string
	window     string // query range name
}

// gwRequest is one open-loop request: at is when it is due, from the
// start of the load.
type gwRequest struct {
	key *readKey
	at  time.Duration
}

// gwResult is one answered request.
type gwResult struct {
	route  string
	frac   float64 // position of the due time in the load window, [0, 1)
	lat    float64 // ms from due to answer
	late   float64 // ms the generator dispatched after due
	status int
	ok     bool // 200, body parses, within the limit
	store  bool // X-Source names the tsdb store
	traced bool
}

// runGateway is gateway-reads: a 64-node cluster with the monitor, tsdb
// store and query module behind a gateway, an hour of simulated job
// churn generated during set-up, then an open-loop Zipf-skewed read mix
// at a fixed rate while simulated time keeps advancing under
// Gateway.Sync. Requests are timed from when they were due.
func runGateway(o options) (*report, error) {
	p := gatewayParams(o.toy)
	rep := newReport()
	rows, err := o.jobTrace(p.trace)
	if err != nil {
		return nil, err
	}
	tr := o.tracer()
	sc := stackConfig{
		nodes:   p.nodes,
		mon:     powermon.Config{BufferSamples: p.ringSamples},
		store:   true,
		query:   true,
		gateway: true,
	}
	var next int // first trace row not yet submitted
	s, setupS, peak, err := setupRepeated(p.setupReps, o.runDir, func(dir string) (*stack, error) {
		s, err := buildStack(sc, o.seed, dir, tr)
		if err != nil {
			return nil, err
		}
		if next, err = churn(s, nil, rows, 0, p.history); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		stopPeak(peak)
		return nil, err
	}
	defer s.close()
	rep.set("setup_s", "s", setupS)
	heapPerNode := float64(settledHeap()) / float64(p.nodes)

	recs, err := s.c.JM.List()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	keys, err := readKeys(rng, recs, p, s.simSec())
	if err != nil {
		return nil, err
	}
	schedule := openLoop(rng, keys, p.ratePerSec, o.seconds)

	// Simulated time advances at a fixed ratio, and the job trace keeps
	// arriving, while the read mix runs. rate holds the host CPU time
	// the advancing goroutine spends in RunFor and Submit, by chunk of
	// simulated time; the traced run switches tracing on and off at chunk
	// boundaries.
	window := time.Duration(o.seconds/p.simTick.Seconds()) * p.simStep
	rate := newHostRate(window)
	tw := newTraceWindow(tr)
	var before snap
	s.sync(func() { before, err = s.snapshot(tr) })
	if err != nil {
		return nil, err
	}
	// Only the advancing goroutine touches these until it has exited.
	var (
		simDone time.Duration // simulated time advanced during the reads
		simErr  error
	)
	stopSim := make(chan struct{})
	simExited := make(chan struct{})
	go func() {
		defer close(simExited)
		// Pinned to its thread, this goroutine's CPU time is the thread's:
		// the readers' work and the time they hold the CPU stay out of it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(p.simTick)
		defer tick.Stop()
		for {
			select {
			case <-stopSim:
				return
			case <-tick.C:
			}
			if simDone >= window {
				return // the reads' last moments run without a partial chunk
			}
			if simErr = tw.set(tracedChunk(rate.index(simDone))); simErr != nil {
				return
			}
			s.sync(func() {
				c0 := threadCPU()
				next, simErr = churn(s, tr, rows, next, s.c.Now().Duration()+p.simStep)
				rate.add(simDone, threadCPU()-c0, p.simStep)
				simDone += p.simStep
			})
			if simErr != nil {
				return
			}
		}
	}()

	results := drive(s, tr, schedule, p.limit, o.seconds)
	close(stopSim)
	<-simExited
	if simErr != nil {
		return nil, simErr
	}
	prof, err := tw.stop()
	if err != nil {
		return nil, err
	}
	var after snap
	s.sync(func() { after, err = s.snapshot(tr) })
	if err != nil {
		return nil, err
	}

	// Correctness: every answer was a parseable 200 within the limit,
	// and a seeded sample of keys answers byte-identically to direct
	// powermon.Client and query.Client calls.
	var lat chunkedLatency
	failed := int64(0)
	byRoute := map[string][]float64{}
	var late []float64
	stored, answered := 0, 0
	for _, r := range results {
		if !r.ok {
			failed++
		}
		if r.traced == (tr != nil) {
			byRoute[r.route] = append(byRoute[r.route], r.lat)
			late = append(late, r.late)
		}
		if r.status == http.StatusOK {
			answered++
			if r.store {
				stored++
			}
		}
		lat.add(r.frac, r.lat)
	}
	rep.Attempted = int64(len(results))
	rep.Failed = failed
	rep.check(failed == 0, "%d of %d requests failed, were refused or missed the %v limit", failed, len(results), p.limit)

	direct, err := checkIdentical(s, tr, rep, rng, keys, p, o.corrupt == "answer")
	if err != nil {
		return nil, err
	}

	rep.note("gateway-reads: %d nodes, %d distinct keys, %d requests at %.0f/s, %.0f sim-s of history, %.0f sim-s during the reads",
		p.nodes, len(keys), len(results), p.ratePerSec, p.history.Seconds(), simDone.Seconds())
	httpTail := rep.setLatency("http", &lat) // Gateway.ServeHTTP, from when each request was due
	if tr == nil {
		solo, err := soloRate(s, rows, next, p)
		if err != nil {
			return nil, err
		}
		rep.set("host_cpu_ms_per_sim_s", "ms", solo.msPerSimSec())
	} else {
		rep.set("powerapi.http_p99_ms", "ms", httpTail)
		setLayerMetrics(rep, s, tr, before, after, prof, rate.simWhere(tracedChunk))
		rep.setTraceRates(rate)
		for _, r := range routes {
			rep.set("powerapi.route_p50_ms."+r, "ms", median(byRoute[r]))
		}
		rep.set("powerapi.generator_late_ms", "ms", quantile(late, tailQuantile(len(late))))
		rep.set("tsdb.store_answer_frac", "ratio", float64(stored)/math.Max(1, float64(answered)))
		rep.set("powermon.heap_bytes_per_node", "B", heapPerNode)
		rep.set("powermon.query_agg_p50_ms", "ms", median(direct["powermon.Client.QueryAggregateContext"]))
		rep.set("powermon.collect_p50_ms", "ms", median(direct["powermon.Client.CollectNodeContext"]))
		for _, w := range queryRanges {
			rep.set("query.eval_p50_ms."+w.name, "ms", median(direct["query.Client.EvalContext "+w.name]))
		}
		if err := o.writeTrace(tr, "gateway-reads", prof, rep); err != nil {
			return nil, err
		}
	}
	rep.set("peak_heap_mb", "MB", float64(peak.Stop())/1e6)
	return rep, nil
}

// soloRate advances the stack p.solo further in p.simStep steps under
// Gateway.Sync, with no reader running, and returns the process CPU time
// it took. While the reads run, the advancing goroutine's CPU time moved
// by a third between repeats of one seed: the readers on the other CPU
// contend for the stack's locks and caches and hand it GC assists.
func soloRate(s *stack, rows []jobRow, next int, p gatewaySize) (*hostRate, error) {
	rate := newHostRate(p.solo)
	// Start from a fresh collection, so every run's segment holds the
	// same collections rather than whatever the reads left half done.
	runtime.GC()
	for done := time.Duration(0); done < p.solo; done += p.simStep {
		var err error
		s.sync(func() {
			c0 := procCPU()
			next, err = churn(s, nil, rows, next, s.c.Now().Duration()+p.simStep)
			rate.add(done, procCPU()-c0, p.simStep)
		})
		if err != nil {
			return nil, err
		}
	}
	return rate, nil
}

// churn submits every trace row due by until and advances the cluster
// to until, returning the next unsubmitted row.
func churn(s *stack, tr *tracer, rows []jobRow, next int, until time.Duration) (int, error) {
	for {
		now := s.c.Now().Duration()
		target := until
		if next < len(rows) && rows[next].at() < target {
			target = rows[next].at()
		}
		if target > now {
			s.runFor(tr, target-now)
		}
		if target == until {
			return next, nil
		}
		if _, err := s.submit(tr, rows[next].spec(next)); err != nil {
			return next, fmt.Errorf("submit: %w", err)
		}
		next++
	}
}

// readKeys builds the distinct requests of the mix from the history: job
// power in both renderings, node windows and queries over one minute to
// one hour. Windows end on a 60-s grid in the past, so their answers are
// cacheable. Keys are in popularity order and stratified down the list:
// routes, window lengths, query shapes, how far back a window ends and
// how much data a job holds (nodes × run time, in octiles) all take
// turns, so every seed requests the same mix at every popularity rank;
// the seed picks the job, node and instant within each stratum and
// draws the requests.
func readKeys(rng *rand.Rand, recs []job.Record, p gatewaySize, nowSec float64) ([]*readKey, error) {
	type weighted struct {
		id uint64
		w  float64
	}
	var jobs []weighted
	for _, r := range recs {
		if r.State == job.StateSched {
			continue
		}
		end := r.EndSec
		if end == 0 {
			end = nowSec
		}
		jobs = append(jobs, weighted{r.ID, float64(r.Spec.Nodes) * (end - r.StartSec)})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no job started during the %v of history", p.history)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].w < jobs[j].w })
	const strata = 8
	pick := func(stratum, n int) int { // an index in the stratum-th of strata slices of [0, n)
		lo, hi := stratum*n/strata, (stratum+1)*n/strata
		if hi <= lo {
			return min(lo, n-1)
		}
		return lo + rng.Intn(hi-lo)
	}
	lastEnd := math.Floor(nowSec/60) * 60
	keys := make([]*readKey, 0, p.keys)
	for i := 0; i < p.keys; i++ {
		turn := i / len(routes)
		w := queryRanges[turn%len(queryRanges)]
		stratum := turn / len(queryRanges) % strata
		end := lastEnd - 60*float64(pick(stratum, int(math.Max(1, (lastEnd-w.sec)/60))))
		switch route := routes[i%len(routes)]; route {
		case routeJobAgg, routeJobRaw:
			id := jobs[pick(turn%strata, len(jobs))].id
			k := &readKey{route: route, jobID: id, path: fmt.Sprintf("/v1/jobs/%d/power", id)}
			if route == routeJobRaw {
				k.path += "?mode=raw"
			}
			keys = append(keys, k)
		case routeNode:
			// Node windows stop at ten minutes (300 raw samples): an hour
			// of raw samples is one 0.4 MB JSON answer, which alone set
			// the tail; hour-long reads go through the query route.
			if w.sec > 600 {
				w = queryRanges[1]
				end = lastEnd - 60*float64(pick(stratum, int((lastEnd-w.sec)/60)))
			}
			rank := int32(rng.Intn(p.nodes))
			keys = append(keys, &readKey{route: route, rank: rank, start: end - w.sec, end: end, window: w.name,
				path: fmt.Sprintf("/v1/nodes/%d/power?start=%g&end=%g", rank, end-w.sec, end)})
		case routeQuery:
			expr := fmt.Sprintf(queryShapes[turn/len(queryRanges)%len(queryShapes)], w.name)
			keys = append(keys, &readKey{route: route, expr: expr, end: end, window: w.name,
				path: fmt.Sprintf("/v1/query?expr=%s&end=%g", url.QueryEscape(expr), end)})
		}
	}
	return keys, nil
}

// openLoop draws Poisson request instants over seconds, each for a key
// picked by a Zipf law over the keys' popularity order (a few hot, a
// long tail).
func openLoop(rng *rand.Rand, keys []*readKey, rate, seconds float64) []gwRequest {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	var out []gwRequest
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, gwRequest{key: keys[zipf.Uint64()], at: time.Duration(t * float64(time.Second))})
	}
	return out
}

// drive sends the schedule open loop: one dispatcher sleeps until each
// request is due and hands it to at most nproc workers, which call
// Gateway.ServeHTTP and check the answer.
func drive(s *stack, tr *tracer, schedule []gwRequest, limit time.Duration, seconds float64) []gwResult {
	type job struct {
		i         int
		key       *readKey
		at        time.Duration
		due, sent time.Time
	}
	// Buffer the whole schedule so a stalled gateway never blocks the
	// dispatcher: lateness is then the generator's own, and queueing
	// shows up in the latency.
	work := make(chan job, len(schedule))
	results := make([]gwResult, len(schedule))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				r := serveOne(s, tr, j.key, j.due, limit)
				r.late = ms(j.sent.Sub(j.due))
				r.frac = j.at.Seconds() / seconds
				results[j.i] = r // each index is written by one worker, read after Wait
			}
		}()
	}
	start := time.Now()
	for i, req := range schedule {
		due := start.Add(req.at)
		time.Sleep(time.Until(due))
		work <- job{i: i, key: req.key, at: req.at, due: due, sent: time.Now()}
	}
	close(work)
	wg.Wait()
	return results
}

// serveOne issues one request through the gateway's handler and checks
// the answer.
func serveOne(s *stack, tr *tracer, key *readKey, due time.Time, limit time.Duration) gwResult {
	r := httptest.NewRequest(http.MethodGet, key.path, nil)
	w := httptest.NewRecorder()
	traced := tr != nil && tr.on.Load()
	end := tr.root("powerapi.Gateway.ServeHTTP", key.route)
	s.gw.ServeHTTP(w, r)
	end()
	lat := time.Since(due)
	res := gwResult{route: key.route, lat: ms(lat), status: w.Code, traced: traced,
		store: strings.Contains(w.Header().Get("X-Source"), "tsdb")}
	res.ok = w.Code == http.StatusOK && lat <= limit && bodyParses(key.route, w.Body.Bytes())
	return res
}

func bodyParses(route string, body []byte) bool {
	if route == routeJobRaw {
		_, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		return err == nil
	}
	return json.Valid(body)
}

// checkIdentical compares, for a seeded sample of keys, the gateway's
// answer with the same answer fetched directly through powermon.Client
// or query.Client and rendered the way the gateway renders it. It waits
// out the gateway's running-job cache lifetime first, and samples jobs
// that started within the newest half of the raw ring and query instants
// off the load's 60-s grid, so no answer the load cached while the data
// aged from ring to store is compared. It returns the direct calls'
// latencies by call name.
func checkIdentical(s *stack, tr *tracer, rep *report, rng *rand.Rand, keys []*readKey, p gatewaySize, corrupt bool) (map[string][]float64, error) {
	time.Sleep(2*time.Second + 100*time.Millisecond) // powerapi's default CacheTTL
	now := s.simSec()
	cur, err := s.c.JM.List()
	if err != nil {
		return nil, err
	}
	// A job's aggregate changes once its window ages out of the raw ring
	// (the answer then comes from 60-s tier buckets), while the gateway
	// keeps a finished job's answer for five minutes; sample only jobs
	// that started within the newest half of the ring.
	ringSec := float64(p.ringSamples) * sampleInterval.Seconds()
	var recent []uint64
	for _, r := range cur {
		if r.State != job.StateSched && r.StartSec >= now-ringSec/2 {
			recent = append(recent, r.ID)
		}
	}
	var sample []*readKey
	for i := 0; i < p.checkPerRoute && len(recent) > 0; i++ {
		id := recent[rng.Intn(len(recent))]
		sample = append(sample,
			&readKey{route: routeJobAgg, jobID: id, path: fmt.Sprintf("/v1/jobs/%d/power", id)},
			&readKey{route: routeJobRaw, jobID: id, path: fmt.Sprintf("/v1/jobs/%d/power?mode=raw", id)})
	}
	nodes := 0
	for _, k := range keys {
		if k.route == routeNode && nodes < p.checkPerRoute {
			sample = append(sample, k)
			nodes++
		}
	}
	for i := 0; i < p.checkPerRoute; i++ {
		for _, w := range queryRanges {
			expr := fmt.Sprintf(queryShapes[rng.Intn(len(queryShapes))], w.name)
			end := math.Floor(now/60)*60 - 30 - 60*float64(rng.Intn(30))
			sample = append(sample, &readKey{route: routeQuery, expr: expr, end: end, window: w.name,
				path: fmt.Sprintf("/v1/query?expr=%s&end=%g", url.QueryEscape(expr), end)})
		}
	}

	pm := powermon.NewClient(s.c.Inst.Root())
	qc := query.NewClient(s.c.Inst.Root())
	lat := map[string][]float64{}
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		var err error
		tr.call(name, "", func() { err = fn() })
		lat[name] = append(lat[name], ms(time.Since(t0)))
		return err
	}
	for _, k := range sample {
		w := httptest.NewRecorder()
		s.gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, k.path, nil))
		var want bytes.Buffer
		var err error
		ctx := context.Background()
		s.sync(func() {
			switch k.route {
			case routeJobAgg:
				err = timed("powermon.Client.QueryAggregateContext", func() error {
					ja, err := pm.QueryAggregateContext(ctx, k.jobID)
					if err == nil {
						err = json.NewEncoder(&want).Encode(ja)
					}
					return err
				})
			case routeJobRaw:
				err = timed("powermon.Client.QueryContext", func() error {
					jp, err := pm.QueryContext(ctx, k.jobID)
					if err == nil {
						err = powermon.WriteCSV(&want, jp)
					}
					return err
				})
			case routeNode:
				err = timed("powermon.Client.CollectNodeContext", func() error {
					ns, err := pm.CollectNodeContext(ctx, k.rank, k.start, k.end)
					if err == nil {
						err = json.NewEncoder(&want).Encode(ns)
					}
					return err
				})
			case routeQuery:
				e, perr := query.Parse(k.expr)
				if perr != nil {
					err = perr
					return
				}
				err = timed("query.Client.EvalContext "+k.window, func() error {
					res, err := qc.EvalContext(ctx, e.String(), k.start, k.end)
					if err == nil {
						err = json.NewEncoder(&want).Encode(res)
					}
					return err
				})
			}
		})
		if err != nil {
			return nil, fmt.Errorf("direct call for %s: %w", k.path, err)
		}
		if corrupt && k == sample[0] {
			w.Body.Bytes()[0] ^= 1
		}
		rep.check(w.Code == http.StatusOK && bytes.Equal(w.Body.Bytes(), want.Bytes()),
			"%s: gateway answer (%d, %d bytes) differs from the direct call (%d bytes)", k.path, w.Code, w.Body.Len(), want.Len())
	}
	counts := map[string]int{}
	for _, k := range sample {
		counts[k.route]++
	}
	names := make([]string, 0, len(counts))
	for r := range counts {
		names = append(names, fmt.Sprintf("%s=%d", r, counts[r]))
	}
	sort.Strings(names)
	rep.note("byte-identity check: %d keys (%s)", len(sample), strings.Join(names, " "))
	return lat, nil
}
