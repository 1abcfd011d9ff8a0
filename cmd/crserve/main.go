// Command crserve serves the solver over HTTP with the versioned wire API
// of package api: canonical instance identity (fingerprints), a sharded
// LRU result cache with singleflight deduplication, a concurrency
// limiter, per-request timeouts and graceful shutdown on SIGINT/SIGTERM.
//
// Endpoints (see repro/internal/httpserve):
//
//	POST   /v1/solve                solve one instance
//	POST   /v1/batch                solve many instances
//	POST   /v1/simulate             solve + replay on the discrete-event testbed
//	POST   /v1/session              open a dynamic-tree session
//	GET    /v1/session/{id}         session state
//	POST   /v1/session/{id}/mutate  mutate a session's tree (optionally resolve)
//	POST   /v1/session/{id}/resolve warm re-solve of the current revision
//	DELETE /v1/session/{id}         close a session
//	POST   /v1/jobs                 submit an async anytime solve job
//	GET    /v1/jobs/{id}            job snapshot (?wait=ms long-polls for completion)
//	GET    /v1/jobs/{id}/events     Server-Sent Events stream of improving incumbents
//	DELETE /v1/jobs/{id}            cancel a job
//	GET    /v1/algorithms           list the registered solvers
//	GET    /v1/cluster              fleet membership, ring state, routing counters
//	POST   /v1/cluster/members      propose or relay a membership change (join/leave at runtime)
//	POST   /v1/migrate/cache        node-to-node push of warm result-cache entries
//	POST   /v1/migrate/sessions     node-to-node push of session snapshots
//	GET    /healthz                 liveness probe ("ok", or "draining" while shutting down)
//	GET    /debug/vars              cache/request/session/cluster counters + expvar
//
// Usage:
//
//	crserve -addr :8080 -cache 4096 -parallelism 8 \
//	        -request-timeout 10s -max-inflight 256 \
//	        -max-sessions 1024 -session-ttl 30m
//
// Clustered (every node lists every other node as a peer):
//
//	crserve -addr :8080 -advertise http://10.0.0.1:8080 \
//	        -peers http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	        -virtual-nodes 64 -probe-interval 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, exposed only behind -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/httpserve"
)

// readPeersFile reads a seed list: one peer base URL per line, blank
// lines and #-comments ignored.
func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading peers file: %w", err)
	}
	var peers []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			peers = append(peers, line)
		}
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "result cache capacity in outcomes (0 disables the store, keeping singleflight)")
	parallelism := flag.Int("parallelism", 0, "batch worker pool size (0 = NumCPU)")
	solveWorkers := flag.Int("solve-workers", 0, "worker count inside one solve for Parallel-capable solvers (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "server-side ceiling per request (0 = none)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrently served requests; excess get HTTP 429 (0 = unbounded)")
	maxBatch := flag.Int("max-batch", 1024, "max items per batch request")
	maxSessions := flag.Int("max-sessions", 1024, "max live dynamic-tree sessions; excess opens evict the least recently used")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle expiry for dynamic-tree sessions (negative disables)")
	jobWorkers := flag.Int("job-workers", 0, "async job tier worker pool size (0 = batch parallelism)")
	jobQueue := flag.Int("job-queue", 256, "max queued async jobs; excess submits get HTTP 429")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "retention of finished async job results")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	peers := flag.String("peers", "", "comma-separated peer base URLs; enables cluster routing (requires -advertise)")
	peersFile := flag.String("peers-file", "", "file with one peer base URL per line; SIGHUP re-reads it and proposes the new membership to the fleet (requires -advertise)")
	advertise := flag.String("advertise", "", "this node's base URL as peers reach it (e.g. http://10.0.0.1:8080)")
	virtualNodes := flag.Int("virtual-nodes", 64, "consistent-hash ring points per node")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe period")
	drainDelay := flag.Duration("drain-delay", -1, "pause between flipping /healthz to draining and closing the listener, so peers' probes notice (-1 = 2x probe-interval when clustered, 0 when not)")
	flag.Parse()

	var cl *cluster.Cluster
	if *peers != "" || *peersFile != "" || *advertise != "" {
		if *advertise == "" {
			fmt.Fprintln(os.Stderr, "crserve: -peers/-peers-file requires -advertise (this node's base URL)")
			os.Exit(2)
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *peersFile != "" {
			fromFile, err := readPeersFile(*peersFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "crserve: %v\n", err)
				os.Exit(2)
			}
			peerList = append(peerList, fromFile...)
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:          *advertise,
			Peers:         peerList,
			VirtualNodes:  *virtualNodes,
			ProbeInterval: *probeInterval,
			// Epoch 1 leaves room below every runtime view change (epochs
			// must strictly grow), so a static seed list can still be
			// superseded by an operator update or a SIGHUP reload.
			Epoch: 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "crserve: %v\n", err)
			os.Exit(2)
		}
	}

	solver := repro.NewSolver(
		repro.WithParallelism(*parallelism),
		repro.WithSolveParallelism(*solveWorkers),
	)
	service := repro.NewService(solver, *cacheSize)
	handler := httpserve.New(httpserve.Config{
		Service:          service,
		RequestTimeout:   *requestTimeout,
		MaxInflight:      *maxInflight,
		MaxBatchItems:    *maxBatch,
		BatchParallelism: *parallelism,
		MaxSessions:      *maxSessions,
		SessionTTL:       *sessionTTL,
		Cluster:          cl,
		JobWorkers:       *jobWorkers,
		JobQueueDepth:    *jobQueue,
		JobTTL:           *jobTTL,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cl != nil {
		// Elastic membership: peers can join and leave at runtime via
		// POST /v1/cluster/members or probe gossip, with warm state pushed
		// ahead of every routing flip.
		mgr := handler.AttachElastic(nil)
		cl.Start()
		defer cl.Stop()

		// SIGHUP re-reads the seed file and proposes the new view — the
		// operator path for growing or shrinking the fleet without
		// restarting any node.
		if *peersFile != "" {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					fromFile, err := readPeersFile(*peersFile)
					if err != nil {
						fmt.Fprintf(os.Stderr, "crserve: SIGHUP reload: %v\n", err)
						continue
					}
					members := elastic.NormalizeMembers(append([]string{*advertise}, fromFile...))
					epoch, err := mgr.Propose(members)
					if err != nil {
						fmt.Fprintf(os.Stderr, "crserve: SIGHUP membership proposal: %v\n", err)
						continue
					}
					fmt.Fprintf(os.Stderr, "crserve: SIGHUP applied membership epoch %d (%d members)\n",
						epoch, len(members))
				}
			}()
		}
	}

	errc := make(chan error, 1)
	go func() {
		if cl != nil {
			fmt.Fprintf(os.Stderr, "crserve: listening on %s as %s (cache=%d, max-inflight=%d, fleet=%d)\n",
				*addr, cl.Self(), *cacheSize, *maxInflight, cl.Size())
		} else {
			fmt.Fprintf(os.Stderr, "crserve: listening on %s (cache=%d, max-inflight=%d)\n",
				*addr, *cacheSize, *maxInflight)
		}
		errc <- srv.ListenAndServe()
	}()

	// The profiling listener is guarded by -pprof and bound separately
	// from the API server, so CPU/heap profiles of the flat-plan hot
	// paths are reachable in production without exposing them on the
	// serving address. It serves the DefaultServeMux: /debug/pprof/*.
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "crserve: pprof on http://%s/debug/pprof\n", *pprofAddr)
			errc <- http.ListenAndServe(*pprofAddr, nil)
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "crserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain, in cluster-safe order: first flip /healthz (and the
	// advertised membership state) to draining so peers stop routing new
	// work here, give their probes one beat to notice, and only then close
	// the listener and finish in-flight requests within the grace window.
	// Closing first would leave a probe interval during which peers keep
	// forwarding solves into a dead socket.
	stop()
	handler.Drain()
	if *drainDelay < 0 {
		if cl != nil {
			*drainDelay = 2 * *probeInterval
		} else {
			*drainDelay = 0
		}
	}
	if *drainDelay > 0 {
		fmt.Fprintf(os.Stderr, "crserve: draining for %v before closing the listener\n", *drainDelay)
		time.Sleep(*drainDelay)
	}
	fmt.Fprintln(os.Stderr, "crserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "crserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	// The listener is closed: cancel running jobs and stop the workers.
	handler.Close()
	st := service.Stats()
	fmt.Fprintf(os.Stderr, "crserve: bye (cache: %d hits, %d misses, %d shared, %d stored)\n",
		st.Hits, st.Misses, st.Shared, st.Size)
}
