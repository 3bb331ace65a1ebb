package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// runServe is the lpnuma daemon: it serves simulations over HTTP/JSON
// until SIGINT/SIGTERM, then drains gracefully (admitted requests
// finish, the cache log flushes) and exits 0.
func runServe(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	jobs := fs.Int("j", 0, "concurrent simulations (0 = host CPU count)")
	cache := fs.String("cache", "", "persistent cell cache path (crash-safe append log)")
	maxInflight := fs.Int("max-inflight", 0, "admitted-request bound before shedding with 429 (0 = 4x workers)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Workers:      *jobs,
		MaxInflight:  *maxInflight,
		CachePath:    *cache,
		DrainTimeout: *drainTimeout,
	})
	if err != nil {
		return err
	}
	if *cache != "" {
		rs := srv.Store().Recovered()
		extra := ""
		if rs.Reset {
			extra = " (unrecognized file, started fresh)"
		} else if rs.TruncatedBytes > 0 {
			extra = fmt.Sprintf(" (dropped %d-byte torn tail)", rs.TruncatedBytes)
		}
		fmt.Fprintf(stderr, "cache %s: %d cells%s\n", *cache, rs.Cells, extra)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	fmt.Fprintf(stderr, "lpnuma serve: listening on %s, %d workers\n",
		ln.Addr(), srv.Scheduler().Workers())
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	tot := srv.Scheduler().Totals()
	fmt.Fprintf(stderr, "drained cleanly: %d requests, %d simulated, %d memory hits, %d disk hits\n",
		tot.Requested, tot.Runs, tot.Hits, tot.DiskHits)
	return nil
}
