package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected: a client that sends half a request header
// and then goes quiet is disconnected once the header timeout passes,
// instead of holding the connection open forever.
func TestStalledHeaderDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 ||
		srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("server limits not set: %+v", srv)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond

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

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: partsrv\r\n"); err != nil {
		t.Fatal(err)
	}
	// Far longer than the header timeout: a read still blocked at this
	// deadline means the server kept the stalled connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not closed by the server after %v: %v", time.Since(start), err)
	}
}
