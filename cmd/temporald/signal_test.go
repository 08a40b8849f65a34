package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv makes a re-executed test binary run the daemon itself, so the
// signal test spawns real temporald processes without a separate build.
const daemonEnv = "TEMPORALD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMAtAnnounceDrains spawns the daemon repeatedly and sends
// SIGTERM the moment its address file appears. The daemon must already
// have its signal handler in place by then: every spawn must drain (the
// "draining" line) and exit 0, never die undrained with its store
// unflushed.
func TestSIGTERMAtAnnounceDrains(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawns := 40
	if testing.Short() {
		spawns = 10
	}
	dir := t.TempDir()
	for i := 0; i < spawns; i++ {
		addrFile := filepath.Join(dir, fmt.Sprintf("addr%d", i))
		cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-store", filepath.Join(dir, fmt.Sprintf("verdicts%d.log", i)))
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				break
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatalf("spawn %d: no address file after 20s; stderr:\n%s", i, stderr.String())
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("spawn %d: %v after SIGTERM at announce; stderr:\n%s", i, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "draining") {
			t.Fatalf("spawn %d: exited without draining; stderr:\n%s", i, stderr.String())
		}
	}
}
