// Command iflexd serves the best-effort extraction assistant to many
// concurrent tenants over HTTP/JSON: it creates refinement sessions,
// serves next-effort questions, folds answers back into programs, and
// streams result tables with degradation reports and EXPLAIN traces.
//
// Usage:
//
//	iflexd -addr :8080 -tenant-workers 4 -tenant-cache-budget 67108864
//
// -store name=dir mounts a sharded document store (built by
// iflex-corpus -store) under a name sessions reference with the create
// request's "store" field; all sessions over the same store share one
// handle, its lazily-materialized pages (bounded by -store-budget), and
// its persistent inverted token index:
//
//	iflexd -store dblife=./dblife.ifs
//
// Mounted stores are live: POST /v1/sessions/{id}/corpus commits a page
// mutation (put/remove) to the addressed session's store, folds the
// delta into every session backed by it, and re-evaluates incrementally
// — tuples sourced from unchanged pages replay from the displaced reuse
// cache instead of recomputing (DESIGN.md §16).
//
// Endpoints (see DESIGN.md §14):
//
//	POST   /v1/sessions             create a session (task-backed or inline docs)
//	GET    /v1/sessions/{id}        lifecycle view
//	POST   /v1/sessions/{id}/step   answer questions, run one iteration
//	POST   /v1/sessions/{id}/corpus commit a store mutation, re-evaluate incrementally
//	GET    /v1/sessions/{id}/result finalize and stream the result (NDJSON)
//	DELETE /v1/sessions/{id}        drop a session
//	GET    /healthz                 "ok" or "draining"
//	GET    /v1/stats                per-tenant aggregate usage
//
// On SIGTERM/SIGINT the server drains: new requests get 503, in-flight
// steps finish, then the process exits 0. Sessions idle past -session-ttl
// are evicted by a background sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iflex/internal/prof"
	"iflex/internal/server"
	"iflex/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's body with an exit code instead of os.Exit, so deferred
// cleanups (profile flushes, listener close) run on every path.
func run(args []string) int {
	fs := flag.NewFlagSet("iflexd", flag.ContinueOnError)
	storeFlags := map[string]string{}
	fs.Func("store", "mount a document store under a name (name=dir, repeatable)", func(v string) error {
		name, dir, ok := strings.Cut(v, "=")
		if !ok || name == "" || dir == "" {
			return fmt.Errorf("want name=dir, got %q", v)
		}
		storeFlags[name] = dir
		return nil
	})
	var (
		addr          = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		storeBudget   = fs.Int64("store-budget", 256<<20, "resident-memory budget in bytes per mounted store's page content (0 = unlimited)")
		maxReqBytes   = fs.Int64("max-request-bytes", 8<<20, "cap on a JSON request body; oversized bodies get 413 (negative = unlimited)")
		readHdrTO     = fs.Duration("read-header-timeout", 10*time.Second, "close connections whose request headers take longer than this")
		idleTO        = fs.Duration("idle-timeout", 2*time.Minute, "close keep-alive connections idle this long")
		maxSessions   = fs.Int("max-sessions", 64, "global live-session cap")
		tenantCap     = fs.Int("max-sessions-per-tenant", 8, "per-tenant live-session cap")
		tenantWorkers = fs.Int("tenant-workers", 0, "per-tenant worker-pool share (0 = one per CPU)")
		tenantCache   = fs.Int64("tenant-cache-budget", 0, "per-tenant reuse-cache byte pool (0 = unlimited)")
		sessionTTL    = fs.Duration("session-ttl", 15*time.Minute, "evict sessions idle this long")
		sweepEvery    = fs.Duration("sweep-interval", time.Minute, "idle-eviction scan cadence")
		defaultStep   = fs.Duration("default-step-deadline", 0, "per-step deadline when the request names none (0 = none)")
		maxStep       = fs.Duration("max-step-deadline", 30*time.Second, "clamp on requested per-step deadlines")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		cpuProfile    = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		tracePath     = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(os.Stderr, "iflexd: ", log.LstdFlags)

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			logger.Print("profiling: ", err)
		}
	}()

	stores := map[string]*store.DiskStore{}
	for name, dir := range storeFlags {
		st, err := store.Open(dir, store.OpenOptions{ResidentBudget: *storeBudget})
		if err != nil {
			logger.Print(err)
			return 1
		}
		defer st.Close()
		stores[name] = st
		for _, note := range st.Recovery() {
			logger.Printf("store %q: recovery: %s", name, note)
		}
		logger.Printf("mounted store %q from %s: %d pages (generation %d)", name, dir, st.Len(), st.Generation())
	}

	srv := server.New(server.Config{
		Stores:               stores,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *tenantCap,
		TenantWorkers:        *tenantWorkers,
		TenantCacheBudget:    *tenantCache,
		SessionTTL:           *sessionTTL,
		SweepInterval:        *sweepEvery,
		DefaultStepDeadline:  *defaultStep,
		MaxStepDeadline:      *maxStep,
		MaxRequestBytes:      *maxReqBytes,
		Logf:                 logger.Printf,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// Header and idle timeouts bound slow-loris connections and idle
	// keep-alives; step latency is governed separately by per-step
	// deadlines, so no overall read/write timeout is set.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHdrTO,
		IdleTimeout:       *idleTO,
	}
	logger.Printf("listening on %s", ln.Addr())

	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		logger.Printf("%v: draining (in-flight steps finish, new requests get 503)", sig)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Print("drain incomplete: ", err)
			return 1
		}
		logger.Print("drained cleanly")
		return 0
	case err := <-served:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Print(err)
			return 1
		}
		return 0
	}
}
