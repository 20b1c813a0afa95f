// Command asymd serves the scenario engine over HTTP: submit a spec (or a
// registered family at a scale), poll the job, fetch the memoized result.
// Identical concurrent submissions share one simulation; finished results
// are cached by the spec's canonical hash.
//
// Usage:
//
//	asymd                          # listen on :8080
//	asymd -addr 127.0.0.1:0        # ephemeral port (logged at startup)
//	asymd -workers 4 -cache 256
//	asymd -peers http://10.0.0.7:8080,http://10.0.0.8:8080
//
// Execution is cell-sharded: a submitted grid is planned into per-cell
// jobs, cached cells are served from the cell-granular LRU, and the
// misses are batched into shards. With -peers set, shards round-robin
// over this node's local pool and the peers' POST /v1/shards APIs (with
// failover), so one daemon fans a large grid out across several.
//
// The dispatch path is fault-tolerant: each peer sits behind a circuit
// breaker (-fail-threshold consecutive transport failures mark it down;
// it is re-probed after an exponential -probe-backoff), each shard has a
// retry budget (-shard-retries rounds with -retry-backoff between them),
// and when every peer is out, shards drain through the local pool — the
// job completes slower, never dead. GET /v1/healthz reports each peer's
// breaker state.
//
// Endpoints (see internal/service):
//
//	POST /v1/jobs            submit {"family","scale","seed"} or {"spec":{...}}
//	GET  /v1/jobs            list known jobs (state, hash, progress)
//	GET  /v1/jobs/{id}       job status + progress + cell hit/miss counters
//	GET  /v1/results/{hash}  grid summary + bit-exact fingerprint
//	GET  /v1/families        registered scenario families (sorted by name)
//	GET  /v1/healthz         liveness + counters
//	GET  /v1/jobs/{id}/trace Perfetto-loadable Chrome trace of the job
//	GET  /metrics            Prometheus text exposition
//	GET  /debug/pprof/       net/http/pprof profiling (opt in: -pprof)
//	POST /v1/shards          worker-facing: execute a batch of plan cells
//
// SIGINT/SIGTERM drain in-flight jobs before exit (for at most shutdownDrain).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynasym/internal/service"
)

// shutdownDrain bounds how long SIGINT/SIGTERM waits for in-flight jobs.
const shutdownDrain = 30 * time.Second

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		workers   = flag.Int("workers", 0, "concurrent cell simulations on the local pool (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 128, "result cache capacity (finished jobs)")
		cellCache = flag.Int("cellcache", 4096, "cell-result cache capacity (grid cells)")
		shard     = flag.Int("shard", 16, "max cells per dispatched shard")
		peers     = flag.String("peers", "", "comma-separated base URLs of peer asymd nodes to farm shards to")
		shardTO   = flag.Duration("shard-timeout", 10*time.Minute, "max time for one remote shard attempt before failing over (<0 disables)")
		retries   = flag.Int("shard-retries", 3, "retry budget: rounds over the backend fleet before a shard fails its job")
		backoff   = flag.Duration("retry-backoff", 100*time.Millisecond, "base pause between shard retry rounds, doubling with jitter (<0 disables)")
		failThr   = flag.Int("fail-threshold", 3, "consecutive transport failures before a peer is marked down")
		probeBO   = flag.Duration("probe-backoff", time.Second, "initial down time before a down peer is re-probed, doubling with jitter")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under GET /debug/pprof/")
		traceKeep = flag.Int("trace-retention", 64, "trace cache capacity (finished job traces, rendered cell sim traces)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stdout, nil))

	// Cache and shard capacities have no meaningful zero or negative
	// configuration — "-cache 0" used to be coerced to the default
	// silently, which reads like "disable caching" but does the opposite.
	// Reject it loudly instead. (-workers 0 stays meaningful: GOMAXPROCS.)
	for _, f := range []struct {
		name string
		v    int
	}{{"cache", *cache}, {"cellcache", *cellCache}, {"shard", *shard}, {"shard-retries", *retries}, {"fail-threshold", *failThr}, {"trace-retention", *traceKeep}} {
		if f.v <= 0 {
			logger.Error("flag value must be positive", "flag", "-"+f.name, "value", f.v)
			os.Exit(2)
		}
	}
	if *probeBO <= 0 {
		logger.Error("flag value must be a positive duration", "flag", "-probe-backoff", "value", probeBO.String())
		os.Exit(2)
	}
	if *workers < 0 {
		logger.Error("flag value must be non-negative (0 = GOMAXPROCS)", "flag", "-workers", "value", *workers)
		os.Exit(2)
	}

	var peerURLs []string
	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			logger.Error("peer URL must start with http:// or https://", "peer", p)
			os.Exit(2)
		}
		peerURLs = append(peerURLs, p)
	}

	mgr := service.NewManager(service.Config{
		Workers:        *workers,
		CacheSize:      *cache,
		CellCacheSize:  *cellCache,
		ShardSize:      *shard,
		Peers:          peerURLs,
		ShardTimeout:   *shardTO,
		ShardRetries:   *retries,
		RetryBackoff:   *backoff,
		FailThreshold:  *failThr,
		ProbeBackoff:   *probeBO,
		TraceRetention: *traceKeep,
		EnablePprof:    *pprofOn,
	})

	// Listen before serving so "-addr :0" resolves to a concrete port we
	// can log (the smoke test scrapes this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           mgr.Handler(logger),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Info("asymd listening", "addr", ln.Addr().String(), "workers", *workers,
		"cache", *cache, "cellcache", *cellCache, "shard", *shard, "peers", len(peerURLs),
		"pprof", *pprofOn, "trace_retention", *traceKeep)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", shutdownDrain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownDrain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown incomplete", "err", err)
	}
	if err := mgr.Shutdown(shutCtx); err != nil {
		logger.Warn("jobs still in flight at exit", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
