package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeEndToEnd boots the demo binary on an ephemeral port, queries
// it over real TCP while the sim driver advances time, and shuts it down
// with the signal path's context cancellation.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-nodes", "4", "-speed", "50"}, started, io.Discard)
	}()
	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started")
	}

	get := func(path string) (*http.Response, error) {
		return http.Get("http://" + addr + path)
	}
	// The driver submits a job within a tick or two; poll the listing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := get("/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Jobs []struct {
				ID uint64 `json:"id"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Jobs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("driver never submitted a job")
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := get("/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"size":4`) {
		t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain on cancellation")
	}
}

// TestServeReplicatedWithTenants boots a 3-replica tier with bearer
// auth and checks the round-robin front door enforces it uniformly.
func TestServeReplicatedWithTenants(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-nodes", "4", "-speed", "50",
			"-replicas", "3", "-tenant", "acme:s3cret:8:0"}, started, io.Discard)
	}()
	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started")
	}

	// Every replica in the rotation must reject anonymous requests and
	// accept the tenant's token.
	for i := 0; i < 6; i++ {
		resp, err := http.Get("http://" + addr + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("anonymous request %d: status %d, want 401", i, resp.StatusCode)
		}
		req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/jobs", nil)
		req.Header.Set("Authorization", "Bearer s3cret")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("authed request %d: status %d, want 200", i, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain on cancellation")
	}
}

// TestHeaderBounds drives the gateway's HTTP server over raw TCP: a
// client that never finishes its headers is disconnected once
// readHeaderTimeout passes, and a header block over maxHeaderBytes gets
// 431 instead of being buffered.
func TestHeaderBounds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() }) // after the parallel subtests
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	t.Run("unfinished-header-cut-off", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		start := time.Now()
		if _, err := io.WriteString(conn, "GET /v1/jobs HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
		n, err := conn.Read(make([]byte, 1))
		if n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("read after stalled header: n=%d err=%v, want the server to close", n, err)
		}
		if waited := time.Since(start); waited < readHeaderTimeout/2 {
			t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
		}
	})

	t.Run("oversized-header-431", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		req := "GET /v1/jobs HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 2*maxHeaderBytes) + "\r\n\r\n"
		// The server may close before reading everything; the write error
		// does not matter, the response does.
		go io.WriteString(conn, req)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("oversized header: status %d, want 431", resp.StatusCode)
		}
	})
}
