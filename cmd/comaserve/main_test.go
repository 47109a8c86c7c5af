package main

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	coma "repro"
)

const testDDL = `CREATE TABLE PO.Orders (orderNo INT, customer VARCHAR(100), city VARCHAR(50));`

// TestServeSmoke drives the real run() end to end: start on a free
// port with a preloaded schema, poll /healthz, do one match
// round-trip through coma.Client, then shut down via SIGINT.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	sqlPath := filepath.Join(dir, "Orders.sql")
	if err := os.WriteFile(sqlPath, []byte(testDDL), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(serveConfig{
			addr:     "127.0.0.1:0",
			repoDir:  filepath.Join(dir, "shards"),
			shards:   2,
			workers:  2,
			colcache: true,
			preload:  []string{sqlPath},
			ready:    ready,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	client := coma.NewClient("http://" + addr)
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Schemas != 1 || h.Shards != 2 {
		t.Errorf("health = %+v", h)
	}

	resp, err := client.Match(ctx, coma.MatchRequest{
		Schema: coma.SchemaPayload{
			Name:   "Purchases",
			Format: "sql",
			Source: "CREATE TABLE P.Purchase (purchaseNo INT, customerName VARCHAR(100), town VARCHAR(50));",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Schema != "Orders" {
		t.Fatalf("match response = %+v", resp)
	}
	if len(resp.Candidates[0].Correspondences) == 0 {
		t.Error("match round-trip produced no correspondences")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down on SIGINT")
	}
}

// TestServeSyncCheckpoint: group-commit sync plus periodic checkpoints
// round-trip — the drain-path checkpoint leaves shard logs whose next
// open replays from a snapshot with the store intact.
func TestServeSyncCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sqlPath := filepath.Join(dir, "Orders.sql")
	if err := os.WriteFile(sqlPath, []byte(testDDL), 0o644); err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(dir, "shards")
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(serveConfig{
			addr:       "127.0.0.1:0",
			repoDir:    shards,
			shards:     2,
			workers:    1,
			sync:       "10ms",
			checkpoint: 20 * time.Millisecond,
			preload:    []string{sqlPath},
			ready:      ready,
		})
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	// Let at least one periodic checkpoint tick fire.
	time.Sleep(60 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down on SIGINT")
	}
	repo, err := coma.OpenShardedRepository(shards, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if st := repo.Stats(); st.Schemas != 1 {
		t.Errorf("schemas after restart = %d, want 1", st.Schemas)
	}
	usedCkpt := false
	for _, rep := range repo.Reports() {
		if !rep.Clean() {
			t.Errorf("shard not clean after checkpointed shutdown: %s", rep)
		}
		if rep.CheckpointUsed {
			usedCkpt = true
		}
	}
	if !usedCkpt {
		t.Error("no shard replayed from a checkpoint after drain")
	}
}

// TestServeBadSyncPolicy: an unparsable -sync value fails fast.
func TestServeBadSyncPolicy(t *testing.T) {
	if err := run(serveConfig{
		addr:    "127.0.0.1:0",
		repoDir: filepath.Join(t.TempDir(), "shards"),
		shards:  1,
		sync:    "sometimes",
	}); err == nil {
		t.Fatal("run with bogus -sync succeeded")
	}
}

// TestServeBadRepo: an unusable repository path fails fast instead of
// listening.
func TestServeBadRepo(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(serveConfig{addr: "127.0.0.1:0", repoDir: file, shards: 2, workers: 1}); err == nil {
		t.Fatal("run over a file path succeeded")
	}
}

// TestServeBadPreload: a broken preload file aborts startup.
func TestServeBadPreload(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "empty.sql")
	if err := os.WriteFile(bad, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(serveConfig{
		addr:     "127.0.0.1:0",
		repoDir:  filepath.Join(dir, "shards"),
		shards:   1,
		workers:  1,
		colcache: true,
		preload:  []string{bad},
	}); err == nil {
		t.Fatal("run with an empty preload schema succeeded")
	}
}
