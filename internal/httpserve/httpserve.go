// Package httpserve is the one way this repo runs an HTTP listener: a
// stdlib http.Server wrapper with fail-fast binding and a blocking
// graceful shutdown. Both mldcsd (the service) and mldcsim (the -pprof
// debug surface) use it, so listen/shutdown semantics cannot drift
// between the two: the listener is opened synchronously (a bad address
// fails before any work starts, and ":0" reports its resolved port),
// serving happens on a background goroutine, and Shutdown waits for
// in-flight requests up to a deadline before forcing the listener closed.
package httpserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Server is a running HTTP server bound to one listener.
type Server struct {
	srv  *http.Server
	addr string

	mu       sync.Mutex
	done     chan struct{} // closed when Serve returns
	serveErr error         // Serve's terminal error, nil on clean close
	closed   bool
}

// Start binds addr (e.g. "127.0.0.1:0") and serves h on a background
// goroutine. The bind is synchronous: an unusable address errors here,
// never later. The returned server's Addr reports the resolved address.
func Start(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpserve: listen %s: %w", addr, err)
	}
	s := &Server{
		srv: &http.Server{
			Addr:              ln.Addr().String(),
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
		},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		err := s.srv.Serve(ln)
		s.mu.Lock()
		if !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
		}
		s.mu.Unlock()
		close(s.done)
	}()
	return s, nil
}

// Addr returns the resolved listen address ("127.0.0.1:41873"), useful
// when Start was given ":0".
func (s *Server) Addr() string { return s.addr }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests get up to timeout to finish, then the listener is torn down.
// It blocks until Serve has returned and reports the first error from
// either serving or shutting down. Safe to call more than once.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			// Deadline hit with requests still in flight: force-close them
			// so done is reachable, then report the graceful failure.
			s.srv.Close()
			<-s.done
			return fmt.Errorf("httpserve: shutdown %s: %w", s.addr, err)
		}
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}
