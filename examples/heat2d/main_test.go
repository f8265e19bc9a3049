package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlags runs heat2d in a child process (this test binary, calling main)
// with each nonsense flag: it must exit 1 naming the flag, having printed
// nothing and run nothing.
func TestBadFlags(t *testing.T) {
	if args := os.Getenv("EXAMPLE_ARGS"); args != "" {
		os.Args = append([]string{"heat2d"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ flag, args string }{{"-rows", "-rows 0"}, {"-nx", "-nx 1"}, {"-sweeps", "-sweeps 0"}, {"-check", "-check 0"}} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlags$")
		cmd.Env = append(os.Environ(), "EXAMPLE_ARGS="+c.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() > 0 || !strings.Contains(stderr.String(), c.flag+" ") {
			t.Errorf("heat2d %s: %v, stdout %q, stderr %q; want exit 1 naming %s and nothing run", c.args, err, stdout.String(), stderr.String(), c.flag)
		}
	}
}
