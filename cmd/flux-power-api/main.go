// Command flux-power-api serves the powerapi HTTP/SSE gateway over a
// simulated cluster — the production front door of the paper's telemetry
// plane, runnable on a laptop.
//
// It builds a monitored Lassen/Tioga instance, keeps a synthetic
// workload running (a new job is submitted whenever the cluster drains),
// advances simulated time in step with wall-clock time, and serves the
// gateway's REST and SSE endpoints:
//
//	flux-power-api -listen :8080 -nodes 8 -speed 4
//	curl localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/1/power?mode=aggregate
//	curl -N localhost:8080/v1/jobs/1/stream
//	curl 'localhost:8080/v1/query?expr=avg%20by%20(job)%20(avg_over_time(node_power_watts%5B5m%5D))'
//
// -replicas N runs a shared-nothing gateway tier: N powerapi.Gateway
// instances sharing one fanout hub (one root-broker attachment, one set
// of per-job broadcast rings), with requests spread round-robin the way
// an L4 load balancer would. -tenant enables bearer-token authn with
// per-tenant quotas:
//
//	flux-power-api -replicas 3 -tenant 'acme:s3cret:100:50'
//	curl -H 'Authorization: Bearer s3cret' localhost:8080/v1/jobs
//
// SIGINT/SIGTERM shut down gracefully: the HTTP server stops accepting,
// in-flight requests and SSE streams drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/query"
)

// HTTP read bounds. A client must finish its request headers within
// readHeaderTimeout, or the connection is closed, so a slow or stalled
// client cannot hold a connection forever. Headers larger than
// maxHeaderBytes get 431. There is no whole-request read or write
// timeout: SSE streams stay open for as long as the client listens.
const (
	readHeaderTimeout = 5 * time.Second
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer returns the gateway's HTTP server with the read bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// demoApps is the workload mix the driver cycles through.
var demoApps = []string{"gemm", "lammps", "quicksilver", "laghos", "nqueens"}

// demo bundles the simulated instance, the shared broadcast hub, and
// the gateway replica tier. Its ServeHTTP spreads requests round-robin
// across replicas, standing in for an L4 load balancer.
type demo struct {
	c    *cluster.Cluster
	hub  *fanout.Hub
	gws  []*powerapi.Gateway
	next atomic.Uint64
}

func (d *demo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.gws[int(d.next.Add(1))%len(d.gws)].ServeHTTP(w, r)
}

// newDemo assembles the monitored cluster, one fanout hub on its root
// broker, and replicas gateway instances sharing that hub.
func newDemo(system cluster.System, nodes, replicas int, seed int64, apiCfg powerapi.Config) (*demo, error) {
	c, err := cluster.New(cluster.Config{System: system, Nodes: nodes, Seed: seed})
	if err != nil {
		return nil, err
	}
	mons := make([]*powermon.Module, nodes)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		// Live sample publication feeds the SSE streams.
		m := powermon.New(powermon.Config{PublishSamples: true})
		mons[rank] = m
		return m
	}); err != nil {
		c.Close()
		return nil, err
	}
	// The query engine reads each rank's monitor archive and answers
	// /v1/query through the pushdown reduction.
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return query.New(query.Config{
			Source: func(rank int32) query.Source { return mons[rank] },
		})
	}); err != nil {
		c.Close()
		return nil, err
	}
	hub, err := fanout.New(fanout.Config{Broker: c.Inst.Root()})
	if err != nil {
		c.Close()
		return nil, err
	}
	d := &demo{c: c, hub: hub}
	for i := 0; i < replicas; i++ {
		cfg := apiCfg
		cfg.Hub = hub
		gw, err := powerapi.New(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.gws = append(d.gws, gw)
	}
	return d, nil
}

// advance moves simulated time forward by d and keeps the workload
// saturated: whenever nothing is running, a fresh job is submitted. All
// cluster access goes through gw.Sync so the single-threaded sim
// scheduler never races concurrent HTTP handlers.
func (d *demo) advance(dur time.Duration, rng *rand.Rand, nodes int, logf func(string, ...any)) {
	d.hub.Sync(func() {
		d.c.RunFor(dur)
		if len(d.c.RunningJobs()) > 0 {
			return
		}
		app := demoApps[rng.Intn(len(demoApps))]
		n := 1 + rng.Intn(nodes)
		id, err := d.c.Submit(job.Spec{Name: fmt.Sprintf("demo-%s", app), App: app, Nodes: n})
		if err != nil {
			logf("submit %s: %v", app, err)
			return
		}
		logf("submitted job %d: %s on %d nodes", id, app, n)
	})
}

func (d *demo) close() {
	for _, gw := range d.gws {
		gw.Close()
	}
	d.hub.Close()
	d.c.Close()
}

// run is main minus process exit, factored for tests: it serves until
// ctx is cancelled, announcing the bound address via started (tests bind
// port 0).
func run(ctx context.Context, args []string, started chan<- string, logw io.Writer) error {
	fs := flag.NewFlagSet("flux-power-api", flag.ContinueOnError)
	fs.SetOutput(logw)
	listen := fs.String("listen", ":8080", "HTTP listen address")
	nodes := fs.Int("nodes", 8, "simulated node count")
	system := fs.String("system", "lassen", "simulated system: lassen or tioga")
	seed := fs.Int64("seed", 1, "simulation seed")
	speed := fs.Float64("speed", 1, "simulated seconds per wall second")
	rate := fs.Float64("rate", 0, "per-client rate limit in requests/sec (0 = off)")
	replicas := fs.Int("replicas", 1, "gateway replicas sharing one fanout hub")
	trustProxy := fs.Bool("trust-proxy", false, "trust X-Forwarded-For for client identity (only behind a trusted proxy)")
	var tenants []powerapi.Tenant
	fs.Func("tenant", "tenant as name:token[:maxStreams[:reqPerSec]] (repeatable; enables bearer auth; limits enforced per replica)", func(v string) error {
		parts := strings.Split(v, ":")
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			return fmt.Errorf("tenant %q: want name:token[:maxStreams[:reqPerSec]]", v)
		}
		t := powerapi.Tenant{Name: parts[0], Token: parts[1]}
		if len(parts) > 2 {
			n, err := strconv.Atoi(parts[2])
			if err != nil {
				return fmt.Errorf("tenant %q: maxStreams: %w", v, err)
			}
			t.MaxStreams = n
		}
		if len(parts) > 3 {
			r, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return fmt.Errorf("tenant %q: reqPerSec: %w", v, err)
			}
			t.RateLimit = r
		}
		tenants = append(tenants, t)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas %d: need at least one gateway", *replicas)
	}
	logger := log.New(logw, "flux-power-api: ", log.LstdFlags)

	var sys cluster.System
	switch *system {
	case "lassen":
		sys = cluster.Lassen
	case "tioga":
		sys = cluster.Tioga
	default:
		return fmt.Errorf("unknown system %q (want lassen or tioga)", *system)
	}
	d, err := newDemo(sys, *nodes, *replicas, *seed, powerapi.Config{
		RateLimit:  *rate,
		TrustProxy: *trustProxy,
		Tenants:    tenants,
	})
	if err != nil {
		return err
	}
	defer d.close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Printf("serving %s %d-node instance on http://%s (%d gateway replica(s))",
		*system, *nodes, ln.Addr(), *replicas)
	if started != nil {
		started <- ln.Addr().String()
	}

	// Drive simulated time from wall time on a single goroutine.
	rng := rand.New(rand.NewSource(*seed))
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				dur := time.Duration(float64(now.Sub(last)) * *speed)
				last = now
				d.advance(dur, rng, *nodes, logger.Printf)
			}
		}
	}()

	srv := newHTTPServer(d)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	logger.Printf("shutting down: draining requests and streams")
	<-driverDone
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	for _, gw := range d.gws {
		gw.Close()
	}
	logger.Printf("drained cleanly")
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil, os.Stderr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "flux-power-api:", err)
		os.Exit(1)
	}
}
