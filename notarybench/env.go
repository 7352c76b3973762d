package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// env owns everything a run opens: servers, listeners, pushers, client
// transports and temporary directories. Each is registered as a closer when
// it is created and closed in reverse order by close, on every exit path:
// normal end, failed check, panic (recovered by the caller) and the overall
// deadline (abort).
type env struct {
	mu      sync.Mutex
	closers []*closer
	tmpRoot string
	owner   bool // the root env removes tmpRoot; scopes share it
	tr      *tracer
	lns     *listenerLog // shared with scopes
}

// listenerLog records every listener address a run opened, so the hygiene
// test can check that none still accepts connections.
type listenerLog struct {
	mu    sync.Mutex
	addrs []string
}

func (l *listenerLog) add(addr string) {
	l.mu.Lock()
	l.addrs = append(l.addrs, addr)
	l.mu.Unlock()
}

func (l *listenerLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.addrs...)
}

// closer releases one resource exactly once, whether it is closed early by
// the workload or at the end by env.close.
type closer struct {
	once sync.Once
	name string
	fn   func() error
	err  error
}

func (c *closer) close() error {
	c.once.Do(func() {
		if err := c.fn(); err != nil {
			c.err = fmt.Errorf("closing %s: %w", c.name, err)
		}
	})
	return c.err
}

// newEnv makes the run's private temporary directory under dir.
func newEnv(dir string, traced bool) (*env, error) {
	root, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{tmpRoot: root, owner: true, lns: &listenerLog{}}
	if traced {
		e.tr = newTracer()
	}
	return e, nil
}

// onClose registers fn to run when the env closes and returns its closer,
// so the workload can also release the resource early.
func (e *env) onClose(name string, fn func() error) *closer {
	c := &closer{name: name, fn: fn}
	e.mu.Lock()
	e.closers = append(e.closers, c)
	e.mu.Unlock()
	return c
}

// scope returns a child env whose resources close with it (or with the
// parent, whichever comes first).
func (e *env) scope() *env {
	child := &env{tmpRoot: e.tmpRoot, tr: e.tr, lns: e.lns}
	e.onClose("scope", child.close)
	return child
}

// close releases every registered resource in reverse order of creation and
// then removes the temporary directory. The first error wins.
func (e *env) close() error {
	var first error
	for {
		e.mu.Lock()
		n := len(e.closers)
		if n == 0 {
			e.mu.Unlock()
			break
		}
		c := e.closers[n-1]
		e.closers[n-1] = nil // let what the closer holds be collected
		e.closers = e.closers[:n-1]
		e.mu.Unlock()
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	if e.owner {
		if err := os.RemoveAll(e.tmpRoot); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// abort is the deadline path: the temporary directory goes first (it cannot
// block), then the closers get a few seconds before the process exits.
func (e *env) abort() {
	_ = os.RemoveAll(e.tmpRoot)
	done := make(chan struct{})
	go func() {
		_ = e.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	_ = os.RemoveAll(e.tmpRoot)
}

// tempDir makes a directory under the run's temporary root that is removed
// when the env closes.
func (e *env) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(e.tmpRoot, pattern)
	if err != nil {
		return "", err
	}
	e.onClose("temp dir "+dir, func() error { return os.RemoveAll(dir) })
	return dir, nil
}

// httpServer is one loopback HTTP server over a handler.
type httpServer struct {
	url  string
	stop *closer
}

// serveHTTP serves h on a fresh loopback listener until the env closes (or
// stop is called). Stopping waits for the serve goroutine to return.
func (e *env) serveHTTP(name string, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.lns.add(ln.Addr().String())
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	stop := e.onClose(name+" http server", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if err != nil {
			_ = hs.Close()
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return errors.New("serve loop did not return")
		}
		return err
	})
	return &httpServer{url: "http://" + ln.Addr().String(), stop: stop}, nil
}

// newClient returns an HTTP client holding at most conns connections, whose
// idle connections close with the env.
func (e *env) newClient(conns int) *http.Client {
	t := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}
	e.onClose("client transport", func() error {
		t.CloseIdleConnections()
		return nil
	})
	return &http.Client{Transport: t, Timeout: 30 * time.Second}
}
