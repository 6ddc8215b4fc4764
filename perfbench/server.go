package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"sortsynth/internal/service"
)

// loopback serves a sortsynthd handler on 127.0.0.1 inside this process
// and holds a keep-alive client with at most conns connections to it.
type loopback struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer builds a server from the default config plus the cache and
// universe fields only, and starts serving it.
func startServer(cacheDir string, cacheSize int, universePath string, conns int) (*loopback, error) {
	srv, err := service.New(service.Config{CacheDir: cacheDir, CacheSize: cacheSize, UniversePath: universePath})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &loopback{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener, waits for the serve goroutine and in-flight
// requests, then aborts any search still running.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	l.srv.Close()
	return err
}

// do sends one request and reads the whole reply.
func (l *loopback) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// direct sends one request straight into handler h, with no TCP.
func direct(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}
