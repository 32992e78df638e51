package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mlnoc/internal/noc"
)

// TestMain lets a test re-execute this binary as nocsim itself: with
// NOCSIM_ARGS set, it runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NOCSIM_ARGS"); ok {
		os.Args = append([]string{"nocsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNocsim runs nocsim with args in a child process and returns its combined
// output and exit code.
func runNocsim(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "NOCSIM_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("nocsim %s: %v", args, err)
	}
	return string(out), 0
}

// TestVCsUpperBound pins the -vcs flag range: MaxVCs runs, one more is a flag
// error (exit status 2) rather than a network the engine cannot track.
func TestVCsUpperBound(t *testing.T) {
	quick := "-size 2 -cycles 20 -warmup 0"
	if out, code := runNocsim(t, fmt.Sprintf("-vcs %d %s", noc.MaxVCs, quick)); code != 0 {
		t.Fatalf("-vcs %d exited %d:\n%s", noc.MaxVCs, code, out)
	}
	out, code := runNocsim(t, fmt.Sprintf("-vcs %d %s", noc.MaxVCs+1, quick))
	want := fmt.Sprintf("-vcs must be <= %d, got %d", noc.MaxVCs, noc.MaxVCs+1)
	if code != 2 || !strings.Contains(out, want) {
		t.Fatalf("-vcs %d exited %d, want 2 with %q:\n%s", noc.MaxVCs+1, code, want, out)
	}
}
