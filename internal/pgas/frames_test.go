package pgas

import (
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// putChainLocals holds the frames of the put/wait chain — the frames under
// every parked image that bench.TestStackBudget fits to one 4 KB stack — to
// their locals (the compiler's -S locals=, go1.24 on amd64). TestStackBudget's
// reading moves by up to 32 B per image between runs of one binary, so it
// cannot show an 8-byte frame change; these numbers do not move. A frame that
// grows is a reason to look at the budget, not a number to raise in passing.
var putChainLocals = map[string]int64{
	"simWait":                       0x88,
	"route":                         0x48,
	"(*delivery).execute":           0x58,
	"dispatch":                      0x60,
	"deliverAt":                     0x30,
	"deliverFlagOp":                 0x30,
	"(*simTransport).Put":           0x50,
	"(*simTransport).PutThenNotify": 0x80,
	"(*simTransport).Notify":        0x68,
	"(*simTransport).WaitFlagGE":    0x20,
	"(*simTransport).Quiet":         0x20,
}

var stextLocals = regexp.MustCompile(`(?m)^cafteams/internal/pgas\.(\S+) STEXT .* locals=(0x[0-9a-f]+)`)

func TestPutChainFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with -S")
	}
	if !strings.HasPrefix(runtime.Version()+".", "go1.24.") || runtime.GOARCH != "amd64" {
		t.Skipf("frame sizes are pinned for go1.24 on amd64, not %s on %s", runtime.Version(), runtime.GOARCH)
	}
	out, err := exec.Command("go", "build", "-gcflags=cafteams/internal/pgas=-S", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -S: %v\n%s", err, out)
	}
	got := map[string]int64{}
	for _, m := range stextLocals.FindAllSubmatch(out, -1) {
		got[string(m[1])], _ = strconv.ParseInt(string(m[2])[2:], 16, 64)
	}
	for fn, ceiling := range putChainLocals {
		if l, ok := got[fn]; !ok {
			t.Errorf("%s: no such function in the -S output", fn)
		} else if l > ceiling {
			t.Errorf("%s: locals=%#x, over its ceiling %#x", fn, l, ceiling)
		}
	}
}
