package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	coma "repro"
)

func seedRepo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.repo")
	repo, err := coma.OpenRepository(path)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	s, err := coma.LoadSQL("PO1", "CREATE TABLE T (a INT, b VARCHAR(10));")
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.PutSchema(s); err != nil {
		t.Fatal(err)
	}
	m := &coma.Mapping{FromSchema: "PO1", ToSchema: "PO2"}
	m.Add("T.a", "X.y", 0.8)
	if err := repo.PutMapping("manual", m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCommands(t *testing.T) {
	path := seedRepo(t)
	for _, cmd := range []string{"stats", "schemas", "mappings", "compact"} {
		if err := run(cmd, path, "", "manual", "", "", "", 0, 0, 0, false, false); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
	if err := run("show", path, "PO1", "manual", "", "", "", 0, 0, 0, false, false); err != nil {
		t.Errorf("show: %v", err)
	}
	if err := run("dump", path, "", "manual", "PO1", "PO2", "", 0, 0, 0, false, false); err != nil {
		t.Errorf("dump: %v", err)
	}
}

func TestMatchCommand(t *testing.T) {
	path := seedRepo(t)
	// A second stored schema so the batch ranks more than one candidate.
	repo, err := coma.OpenRepository(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := coma.LoadSQL("PO2", "CREATE TABLE U (a INT, c VARCHAR(10));")
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.PutSchema(s2); err != nil {
		t.Fatal(err)
	}
	repo.Close()

	in := filepath.Join(t.TempDir(), "incoming.sql")
	if err := os.WriteFile(in, []byte("CREATE TABLE V (a INT, b VARCHAR(10));"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("match", path, "", "manual", "", "", in, 0, 1, 0, false, false); err != nil {
		t.Errorf("match: %v", err)
	}
	if err := run("match", path, "", "manual", "", "", in, 1, 0, 0, false, false); err != nil {
		t.Errorf("match -topk 1: %v", err)
	}
	if err := run("match", path, "", "manual", "", "", in, 1, 0, 1, false, false); err != nil {
		t.Errorf("match -topk 1 -max-candidates 1: %v", err)
	}
	if err := run("match", path, "", "manual", "", "", in, 1, 0, 0, true, false); err != nil {
		t.Errorf("match -topk 1 -exhaustive: %v", err)
	}
}

func fsck(path string, repair bool) error {
	return run("fsck", path, "", "manual", "", "", "", 0, 0, 0, false, repair)
}

func TestFsckClean(t *testing.T) {
	path := seedRepo(t)
	if err := fsck(path, false); err != nil {
		t.Errorf("fsck of clean repo: %v", err)
	}
}

func TestFsckRepair(t *testing.T) {
	path := seedRepo(t)
	// Flip a byte inside the first record's payload: fsck must report
	// the damage without touching the file, and -repair must salvage.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsck(path, false); err == nil {
		t.Fatal("fsck of damaged repo should fail without -repair")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(data) {
		t.Fatal("fsck without -repair modified the file")
	}
	if err := fsck(path, true); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	if err := fsck(path, false); err != nil {
		t.Errorf("fsck after repair: %v", err)
	}
}

func TestFsckShardedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	repo, err := coma.OpenShardedRepository(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := coma.LoadSQL("PO1", "CREATE TABLE T (a INT);")
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.PutSchema(s); err != nil {
		t.Fatal(err)
	}
	repo.Close()
	if err := fsck(dir, false); err != nil {
		t.Errorf("fsck of sharded dir: %v", err)
	}
	if err := fsck(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Error("fsck of missing path should fail")
	}
}

func TestCommandErrors(t *testing.T) {
	path := seedRepo(t)
	if err := run("bogus", path, "", "", "", "", "", 0, 0, 0, false, false); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run("show", path, "", "", "", "", "", 0, 0, 0, false, false); err == nil {
		t.Error("show without -schema should fail")
	}
	if err := run("show", path, "Missing", "", "", "", "", 0, 0, 0, false, false); err == nil {
		t.Error("show of missing schema should fail")
	}
	if err := run("dump", path, "", "manual", "", "", "", 0, 0, 0, false, false); err == nil {
		t.Error("dump without endpoints should fail")
	}
	if err := run("dump", path, "", "manual", "A", "B", "", 0, 0, 0, false, false); err == nil {
		t.Error("dump of missing mapping should fail")
	}
	if err := run("match", path, "", "manual", "", "", "", 0, 0, 0, false, false); err == nil {
		t.Error("match without -in should fail")
	}
	if err := run("match", path, "", "manual", "", "", filepath.Join(t.TempDir(), "nope.txt"), 0, 0, 0, false, false); err == nil {
		t.Error("match of missing file should fail")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = stdout
	w.Close()
	return <-done, err
}

// fileSize returns the size of the file at path, 0 when it is absent.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestStatsAndCompactCountPages: after a checkpoint a store's records
// live in its page file, so stats must print the page-file bytes and
// compact must report the whole store (log plus pages) before and
// after, not the near-empty log alone.
func TestStatsAndCompactCountPages(t *testing.T) {
	path := seedRepo(t)
	repo, err := coma.OpenRepository(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PO2", "PO3"} {
		s, err := coma.LoadSQL(name, "CREATE TABLE U (a INT, c VARCHAR(10));")
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, pageBytes := fileSize(t, path), fileSize(t, path+".pages")
	if pageBytes == 0 {
		t.Fatal("checkpoint wrote no page file")
	}

	out, err := captureStdout(t, func() error {
		return run("stats", path, "", "manual", "", "", "", 0, 0, 0, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("log size: %d bytes", logBytes),
		fmt.Sprintf("pages:    %d bytes", pageBytes),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q:\n%s", want, out)
		}
	}

	out, err = captureStdout(t, func() error {
		return run("compact", path, "", "manual", "", "", "", 0, 0, 0, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	after := fileSize(t, path) + fileSize(t, path+".pages")
	want := fmt.Sprintf("compacted: %d -> %d bytes", logBytes+pageBytes, after)
	if !strings.Contains(out, want) {
		t.Errorf("compact output = %q, want it to contain %q", out, want)
	}
}
