package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// daemon is an in-process serve.Server on a loopback listener, with the
// client the workload's goroutines share.
type daemon struct {
	srv    *serve.Server
	cl     *client.Client
	http   *http.Client
	cancel context.CancelFunc
	done   chan error
}

// warmupRounds is how many health checks each client makes before the
// daemon counts as set up, so its keep-alive connection is open.
const warmupRounds = 4

// startDaemon builds a daemon on the cache log at path (recovering it),
// starts serving, and warms one connection per client.
func startDaemon(path string) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: workers, CachePath: path})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	d := &daemon{
		srv:    srv,
		cl:     client.New("http://"+ln.Addr().String(), client.Config{HTTPClient: hc}),
		http:   hc,
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < warmupRounds && errs[i] == nil; j++ {
				errs[i] = d.cl.Healthz(ctx)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("daemon warm-up: %w", err)
		}
	}
	return d, nil
}

// stop drains the daemon, which closes its cache log, and waits for it.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.http.CloseIdleConnections()
	return err
}
