// Command ripple-serve is the live query-serving layer: it follows a
// validation stream (cmd/rippled-sim with -stream-pages), optionally
// backfills a ledgerstore history first, and serves the paper's
// analytics — per-validator tallies (Fig. 2), de-anonymization
// information gain and point lookups (Fig. 3 / Table I), and the
// ecosystem histograms (Figs. 4–6) — over an HTTP JSON API, answering
// from incrementally maintained materialized views instead of batch
// scans.
//
//	ripple-serve -listen 127.0.0.1:8080 -connect 127.0.0.1:5006 -period dec2015
//	ripple-serve -listen 127.0.0.1:8080 -store ./history -workers 8
//
// Endpoints: /healthz, /metrics (Prometheus text), /v1/validators,
// /v1/deanon, /v1/deanon/lookup, /v1/ecosystem. With -txq the online
// front door adds /v1/path_find (ripple_path_find-style quotes over a
// read-set-invalidated plan cache), /v1/submit (admission-controlled
// transaction queue applied batch by batch through the engine), and
// /v1/tx_status.
//
// SIGINT/SIGTERM shut down gracefully: the stream subscription stops,
// in-flight ingestion drains into a final epoch, the HTTP server
// finishes open requests, and the partial collection summary is
// printed — data collected before the signal is never lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/serve"
	"ripplestudy/internal/txq"
)

// config is the command line, parsed. Every numeric flag that tunes
// serve, txq or the backfill defaults to 0, which hands the choice to
// the library, so each default is written in one place.
type config struct {
	listen, connect, storeDir, period string
	workers, retries                  int
	stall                             time.Duration
	serve                             serve.Options
	txq                               txq.Options
	txqEnable                         bool
	ckptEvery                         uint64
}

// parseFlags parses args (without the program name) into a config; a
// malformed command line exits with the usage.
func parseFlags(args []string) config {
	var c config
	fs := flag.NewFlagSet("ripple-serve", flag.ExitOnError)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8080", "HTTP address for the query API")
	fs.StringVar(&c.connect, "connect", "", "validation stream address to follow (optional)")
	fs.StringVar(&c.storeDir, "store", "", "ledgerstore directory to backfill before following (optional)")
	fs.IntVar(&c.workers, "workers", 0, "parallel decode workers for the backfill (0 = GOMAXPROCS)")
	fs.StringVar(&c.period, "period", "", "label validators from a collection period: dec2015|jul2016|nov2016")
	fs.IntVar(&c.retries, "retries", 8, "consecutive connection failures before giving up on the stream")
	fs.DurationVar(&c.stall, "stall", 30*time.Second, "reconnect if no event arrives for this long (0 = never)")
	fs.IntVar(&c.serve.QueueSize, "queue", 0, "per-view ingest queue size, in batches (0 = 1024)")
	fs.IntVar(&c.serve.PublishBatch, "batch", 0, "max updates between view snapshot publishes (0 = 256)")
	fs.IntVar(&c.serve.IngestBatchPages, "ingest-batch", 0, "pages per ingest fan-out batch on the backfill paths (0 = 64)")
	fs.IntVar(&c.serve.FingerprintShards, "fp-shards", 0, "fingerprint count shards, rounded up to a power of two (0 = cover GOMAXPROCS)")
	fs.BoolVar(&c.serve.NonBlocking, "drop", false, "shed ingest load when a view falls behind instead of applying backpressure")
	fs.IntVar(&c.serve.MaxConcurrent, "max-inflight", 0, "max concurrent HTTP queries (0 = 64)")
	fs.BoolVar(&c.txqEnable, "txq", false, "serve the online front door: /v1/path_find quotes, /v1/submit, /v1/tx_status (engine state replayed from -store when given, empty otherwise)")
	fs.IntVar(&c.txq.QueueDepth, "txq-depth", 0, "transaction queue admission bound (0 = 1024)")
	fs.IntVar(&c.txq.BatchSize, "txq-batch", 0, "transactions applied per batch, one plan-cache epoch advance each (0 = 256)")
	fs.BoolVar(&c.txq.Backpressure, "txq-backpressure", false, "make /v1/submit wait for queue space instead of shedding with 503")
	fs.IntVar(&c.txq.CacheSize, "txq-cache", 0, "path-plan quote cache entries (0 = 4096)")
	fs.Uint64Var(&c.ckptEvery, "checkpoint-every", 0, "write state-tree checkpoints every N pages during the txq engine rebuild (0 = resume only, never write)")
	_ = fs.Parse(args) // ExitOnError: a bad command line exits inside Parse
	return c
}

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "ripple-serve:", err)
		os.Exit(1)
	}
}

// periodLabels maps a collection period's validator node IDs to their
// display labels so /v1/validators reads like the paper's Figure 2.
func periodLabels(period string) (map[addr.NodeID]string, error) {
	if period == "" {
		return nil, nil
	}
	var spec consensus.PeriodSpec
	switch period {
	case "dec2015":
		spec = consensus.December2015(0)
	case "jul2016":
		spec = consensus.July2016(0)
	case "nov2016":
		spec = consensus.November2016(0)
	default:
		return nil, fmt.Errorf("unknown period %q (want dec2015|jul2016|nov2016)", period)
	}
	labels := make(map[addr.NodeID]string)
	for _, vs := range spec.Specs {
		if vs.Label != "" {
			labels[addr.KeyPairFromSeed(vs.Seed).NodeID()] = vs.Label
		}
	}
	return labels, nil
}

func run(c config) error {
	labels, err := periodLabels(c.period)
	if err != nil {
		return err
	}
	opts := c.serve
	opts.ValidatorLabels = labels
	svc := serve.NewService(opts)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var st *ledgerstore.Store
	if c.storeDir != "" {
		st, err = ledgerstore.Open(c.storeDir)
		if err != nil {
			return err
		}
	}

	var fd *txq.FrontDoor
	if c.txqEnable {
		// The front door owns its own engine: replayed from the store's
		// full history when one is given, empty (accounts funded via
		// submitted history) otherwise.
		eng := payment.NewEngine()
		if st != nil {
			last, ok, serr := st.LastSeq()
			if serr != nil {
				return fmt.Errorf("txq: %w", serr)
			}
			if ok {
				// The rebuild resumes from the store's checkpoint sidecar
				// when one is present (and optionally refreshes it), so a
				// restart fast-forwards instead of replaying all history.
				start := time.Now()
				eng, serr = replay.BuildStateOpts(st, last, replay.BuildOptions{CheckpointEvery: c.ckptEvery})
				if serr != nil {
					return fmt.Errorf("txq: rebuilding engine state: %w", serr)
				}
				fmt.Fprintf(os.Stderr, "ripple-serve: txq engine state rebuilt through seq %d in %v\n",
					last, time.Since(start).Round(time.Millisecond))
			}
		}
		fd = txq.New(eng, c.txq)
		svc.AttachFrontDoor(fd)
		fmt.Fprintf(os.Stderr, "ripple-serve: txq front door up (backpressure=%v)\n", c.txq.Backpressure)
	}

	httpSrv := &http.Server{Addr: c.listen, Handler: svc.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ripple-serve: serving on http://%s\n", c.listen)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
		close(httpErr)
	}()

	if st != nil {
		start := time.Now()
		if err := svc.BackfillStore(ctx, st, c.workers); err != nil {
			if ctx.Err() != nil {
				// Interrupted mid-backfill: keep what was ingested.
				fmt.Fprintln(os.Stderr, "ripple-serve: backfill interrupted, keeping partial views")
			} else {
				return fmt.Errorf("backfill: %w", err)
			}
		} else {
			h := svc.Health()
			fmt.Fprintf(os.Stderr, "ripple-serve: backfilled %d pages in %v\n",
				h.IngestedPages, time.Since(start).Round(time.Millisecond))
		}
	}

	var streamStats netstream.ClientStats
	if c.connect != "" && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "ripple-serve: following validation stream at %s\n", c.connect)
		stats, err := svc.Follow(ctx, c.connect, netstream.ResilientOptions{
			MaxConsecutiveFailures: c.retries,
			StallTimeout:           c.stall,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		streamStats = stats
		// A simulator that finishes its period and exits looks like
		// exhausted retries; everything collected so far still serves.
		if err != nil && (!errors.Is(err, netstream.ErrUnavailable) || stats.Connects == 0) {
			return err
		}
		fmt.Fprintf(os.Stderr, "ripple-serve: stream ended (events=%d reconnects=%d gaps=%d)\n",
			stats.Events, stats.Reconnects, stats.Gaps)
	}

	if c.connect == "" && c.storeDir != "" && ctx.Err() == nil {
		// Pure backfill mode: keep serving until a signal arrives.
		<-ctx.Done()
	}

	// Graceful shutdown: drain queued ingestion into a final epoch, then
	// let in-flight requests finish against it.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = svc.Drain(drainCtx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ripple-serve: drain incomplete: %v\n", err)
	}
	if fd != nil {
		// Admitted transactions are applied before the door closes; the
		// HTTP server is still up, so their /v1/submit waiters resolve.
		fdCtx, fdCancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := fd.Drain(fdCtx); err != nil {
			fmt.Fprintf(os.Stderr, "ripple-serve: txq drain incomplete: %v\n", err)
		}
		fdCancel()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ripple-serve: http shutdown: %v\n", err)
	}
	cancel()
	if err, ok := <-httpErr; ok && err != nil {
		return err
	}
	if fd != nil {
		fd.Close()
		s := fd.StatsNow()
		fmt.Fprintf(os.Stderr, "ripple-serve: txq final: offered=%d applied=%d shed=%d cache hits=%d misses=%d\n",
			s.Offered, s.Applied, s.Shed, s.CacheHits, s.CacheMisses)
	}
	svc.Close()

	// The partial-collection summary: what the views hold at exit.
	h := svc.Health()
	fmt.Fprintf(os.Stderr, "ripple-serve: final state: events=%d pages=%d dropped=%d\n",
		h.IngestedEvents, h.IngestedPages, h.DroppedEvents)
	tally := svc.Tally()
	fp := svc.Fingerprints()
	eco := svc.Ecosystem()
	fmt.Fprintf(os.Stderr, "ripple-serve: fig2: %d rounds, %d validators (epoch %d)\n",
		tally.Rounds, len(tally.Validators), tally.Epoch)
	fmt.Fprintf(os.Stderr, "ripple-serve: fig3: %d payments fingerprinted across %d resolutions (epoch %d)\n",
		fp.Payments, len(fp.Rows), fp.Epoch)
	fmt.Fprintf(os.Stderr, "ripple-serve: fig4-6: %d payments, %d offers, %d active users (epoch %d)\n",
		eco.Payments, eco.Offers, eco.ActiveUsers, eco.Epoch)
	if streamStats.Events > 0 || c.connect != "" {
		fmt.Fprintf(os.Stderr, "ripple-serve: stream client: connects=%d events=%d missed=%d duplicates=%d\n",
			streamStats.Connects, streamStats.Events, streamStats.Missed, streamStats.Duplicates)
	}
	return nil
}
