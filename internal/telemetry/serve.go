package telemetry

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// NewHTTPServer builds an http.Server with the header and idle timeouts
// every network-facing listener needs: without them one client
// trickling a request line (or parking idle keep-alives) holds a
// connection forever.
func NewHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve is the process lifetime both daemons share: listen on addr,
// write the bound address to addrFile (when non-empty), serve handler
// plus reg's /metrics under the service's HTTP instrumentation and
// access log, and on SIGINT/SIGTERM shut down gracefully (10 s for
// in-flight requests). service prefixes the HTTP metric names and every
// log line. closeFn releases what the handler serves from; it runs once,
// on every path, last. The result is the process exit code.
func Serve(service, addr, addrFile string, reg *Registry, handler http.Handler, closeFn func()) int {
	defer closeFn()
	ln, err := net.Listen("tcp", addr)
	if err == nil && addrFile != "" {
		if err = os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", service, err)
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", handler)
	srv := NewHTTPServer(NewHTTPMetrics(reg, service, log.Default()).Wrap(mux))
	// Shutdown counts a connection that has sent no request byte
	// (StateNew) as idle only once it is 5 s old; an http.Transport leaves
	// such a connection behind when another one serves the request it was
	// dialed for. Close them as shutdown begins (StateActive ones drain).
	var fresh sync.Map // net.Conn → true while in StateNew
	srv.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			fresh.Store(c, true)
		} else {
			fresh.Delete(c)
		}
	}
	srv.RegisterOnShutdown(func() {
		fresh.Range(func(c, _ any) bool {
			c.(net.Conn).Close()
			return true
		})
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("%s: listening on %s", service, ln.Addr())

	select {
	case err := <-errc:
		log.Printf("%s: %v", service, err)
		return 1
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down", service)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: shutdown: %v", service, err)
	}
	return 0
}
