// Command dcserve runs the Datalog engine as a long-lived HTTP query
// service: datasets are loaded once (at startup or over HTTP) and
// shared read-only across queries, programs are compiled once and
// cached, and concurrent evaluations are multiplexed over a bounded
// machine-wide worker budget with 429 backpressure on overload.
//
//	dcserve -addr :8080 -dataset graph/arc:int,int=edges.tsv
//
//	curl -X POST localhost:8080/v1/query -d '{
//	  "dataset": "graph",
//	  "program": "tc(X,Y) :- arc(X,Y). tc(X,Y) :- tc(X,Z), arc(Z,Y).",
//	  "relations": ["tc"], "limit": 10
//	}'
//
// Endpoints: POST /v1/datasets, POST /v1/query, GET /healthz,
// GET /metrics (Prometheus text format). SIGINT/SIGTERM drains
// gracefully: in-flight queries finish (their deadlines still apply),
// new ones get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// Connection timeouts. A client that opens a connection and never
// finishes its request headers would otherwise hold it forever, and so
// would an idle keep-alive connection. There is no read or write
// timeout: request bodies (inline datasets) and query evaluations are
// legitimately long, and query deadlines bound evaluation already.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in an http.Server with the
// connection timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "dcserve:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var datasets listFlag
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var(&datasets, "dataset", "dataset relation spec ds/rel:type,...=file.tsv (repeatable; relations with the same ds form one dataset)")
	budget := flag.Int("worker-budget", 0, "machine-wide worker-slot budget (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 16, "admission queue bound before 429s")
	maxWorkers := flag.Int("max-workers-per-query", 0, "per-query worker clamp (0 = budget)")
	defTimeout := flag.Duration("default-timeout", 30*time.Second, "query deadline when the request sets none")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "hard cap on requested query deadlines")
	cacheSize := flag.Int("cache", 128, "prepared-program cache entries")
	maxTuples := flag.Int64("max-tuples", 0, "default per-stratum tuple budget (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	srv := server.New(server.Config{
		WorkerBudget:       *budget,
		MaxQueue:           *maxQueue,
		MaxWorkersPerQuery: *maxWorkers,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		CacheSize:          *cacheSize,
		DefaultMaxTuples:   *maxTuples,
	})
	if err := loadDatasets(srv, datasets); err != nil {
		return err
	}

	httpSrv := newHTTPServer(*addr, srv)
	errc := make(chan error, 1)
	go func() {
		log.Printf("dcserve: listening on %s (datasets: %s)", *addr, strings.Join(srv.Registry().Names(), ", "))
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("dcserve: %s — draining (budget %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("dcserve: %v — forcing shutdown", err)
	}
	// Shutdown stops the listener and waits for handler returns; after
	// Drain that is immediate unless the drain budget ran out, in
	// which case the remaining request contexts are canceled and
	// RunContext aborts them mid-fixpoint.
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Print("dcserve: drained, bye")
	return nil
}

// loadDatasets groups -dataset specs ("ds/rel:types=file") by dataset
// name and registers each group as one frozen dataset.
func loadDatasets(srv *server.Server, specs []string) error {
	grouped := make(map[string][]server.RelationSpec)
	var order []string
	for _, spec := range specs {
		dsName, rest, ok := strings.Cut(spec, "/")
		if !ok {
			return fmt.Errorf("bad -dataset %q (want ds/rel:types=file)", spec)
		}
		decl, path, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("bad -dataset %q (missing =file)", spec)
		}
		relName, typesStr, ok := strings.Cut(decl, ":")
		if !ok {
			return fmt.Errorf("bad -dataset %q (missing :types)", spec)
		}
		if _, seen := grouped[dsName]; !seen {
			order = append(order, dsName)
		}
		grouped[dsName] = append(grouped[dsName], server.RelationSpec{
			Name:  relName,
			Types: strings.Split(typesStr, ","),
			Path:  path,
		})
	}
	for _, dsName := range order {
		ds, err := server.BuildDataset(dsName, grouped[dsName])
		if err != nil {
			return err
		}
		if err := srv.Registry().Register(ds); err != nil {
			return err
		}
		log.Printf("dcserve: dataset %q loaded: %s", dsName, strings.Join(ds.Relations(), ", "))
	}
	return nil
}
