package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerBoundsSlowClients: the daemon's server sets the three read-side
// timeouts and no write timeout, and a connection that sends half a request
// line and stalls is closed by the server once the header timeout passes.
// The behavioural half shortens the header timeout so the test does not
// wait out the production value.
func TestServerBoundsSlowClients(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("read-side timeouts not all set: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut SSE streams and long jobs", srv.WriteTimeout)
	}

	const headerTimeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	// The server's header timer starts at accept, which can precede Dial's
	// return: the clock starts before Dial so it never starts late.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/jo")); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the stream must
	// end (EOF or reset), not sit open until the client's own deadline.
	if err := conn.SetReadDeadline(start.Add(20 * headerTimeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept a stalled half-request open for %v", time.Since(start))
	}
	if took := time.Since(start); took < headerTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", took, headerTimeout)
	}
}
