package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"surge/client"
)

// TestRunServeEndToEnd boots the serve subcommand on a free port, ingests
// a small stream, checkpoints it via SIGTERM and reboots from the file.
func TestRunServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ckpt := filepath.Join(t.TempDir(), "surge.ckpt")

	done := make(chan error, 1)
	go func() {
		done <- runServe([]string{
			"-addr", addr, "-algo", "CCS", "-width", "1", "-height", "1",
			"-window", "60", "-shards", "2", "-checkpoint", ckpt,
		})
	}()

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	waitHealthy(ctx, t, c)

	body := "1,2,2,5\n2,2.1,2.1,5\n3,2.05,2.05,5\n"
	res, err := c.IngestStream(ctx, strings.NewReader(body), client.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 {
		t.Fatalf("accepted %d, want 3", res.Accepted)
	}

	// SIGTERM: graceful shutdown must write the checkpoint.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("serve did not shut down on SIGTERM")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil || len(data) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Reboot from the checkpoint; the live set must survive.
	go func() {
		done <- runServe([]string{
			"-addr", addr, "-algo", "CCS", "-width", "1", "-height", "1",
			"-window", "60", "-shards", "3", "-restore", ckpt,
		})
	}()
	waitHealthy(ctx, t, c)
	st, err := c.Best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 3 || st.Shards != 3 {
		t.Fatalf("rebooted state live=%d shards=%d, want 3/3", st.Live, st.Shards)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second runServe: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("second serve did not shut down")
	}
}

func TestRunServeRejectsBadFlags(t *testing.T) {
	if err := runServe([]string{"-algo", "bogus"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := runServe([]string{"-time-policy", "loose"}); err == nil {
		t.Fatal("unknown time policy accepted")
	}
	if err := runServe([]string{"-shards", "-2"}); err == nil {
		t.Fatal("negative shards accepted")
	}
	// runServe only returns once the listener is down, so an error from a
	// call that was never told to stop means it failed before binding.
	for _, k := range []string{"-1", "0"} {
		if err := runServe([]string{"-topk", k}); err == nil || !strings.Contains(err.Error(), "-topk") {
			t.Fatalf("-topk %s: %v, want it rejected by name", k, err)
		}
	}
	for _, alg := range []string{"Oracle", "aG2"} {
		err := runServe([]string{"-algo", alg})
		if err == nil || !strings.Contains(err.Error(), "served: CCS, B-CCS, Base, GAPS, MGAPS") {
			t.Fatalf("-algo %s: %v, want an error naming the served algorithms", alg, err)
		}
	}
	if err := runServe([]string{"-restore", "/nonexistent/surge.ckpt"}); err == nil {
		t.Fatal("missing restore file accepted")
	}
	// The -restore/-data-dir conflict is a flag error, so it must be
	// rejected before serve touches either path (including paths that do
	// not exist yet).
	err := runServe([]string{"-restore", "/nonexistent/surge.ckpt", "-data-dir", "/nonexistent/dir"})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("restore+data-dir conflict not rejected as such: %v", err)
	}
	if err := runServe([]string{"-queries", "/nonexistent/queries.json"}); err == nil {
		t.Fatal("missing queries file accepted")
	}
	badq := filepath.Join(t.TempDir(), "queries.json")
	if err := os.WriteFile(badq, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runServe([]string{"-queries", badq}); err == nil {
		t.Fatal("malformed queries file accepted")
	}
	if err := os.WriteFile(badq, []byte(`[{"id":"default"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runServe([]string{"-addr", "127.0.0.1:0", "-queries", badq}); err == nil {
		t.Fatal("queries file redeclaring \"default\" accepted")
	}
}

func waitHealthy(ctx context.Context, t *testing.T, c *client.Client) {
	t.Helper()
	for {
		if h, err := c.Health(ctx); err == nil && h.OK {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatal("server never became healthy")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
