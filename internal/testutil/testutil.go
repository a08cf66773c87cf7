// Package testutil holds helpers shared by integration and soak tests: a
// goroutine-leak checker based on runtime.Stack snapshot diffing, a
// pooled-buffer balance assertion over the tensor buffer pool's traffic
// counters, and a frame writer that stands in for a peer of another
// protocol version.
package testutil

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"websnap/internal/protocol"
	"websnap/internal/tensor"
)

// TB is the subset of testing.TB the helpers need; tests pass *testing.T.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// benignSubstrings mark goroutines that are allowed to outlive a test:
// runtime helpers, the testing framework itself, and this checker.
var benignSubstrings = []string{
	"testing.(*T).Run",
	"testing.Main",
	"testing.tRunner",
	"testing.runTests",
	"testing.(*M).",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap",
	"runtime/trace",
	"signal.signal_recv",
	"testutil.interestingStacks",
	"created by runtime",
	// The net poller and DNS resolver park goroutines that the runtime
	// reuses across tests.
	"internal/poll.runtime_pollWait",
	"net._C2func_getaddrinfo",
}

// interestingStacks returns the stack dump split per goroutine, keeping
// only goroutines that match none of the benign filters.
func interestingStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		benign := false
		for _, s := range benignSubstrings {
			if strings.Contains(g, s) {
				benign = true
				break
			}
		}
		if !benign {
			out = append(out, g)
		}
	}
	return out
}

// stackKey reduces one goroutine dump to its identity-free shape (the
// header line "goroutine 123 [running]:" carries the ID, which changes
// every run), so before/after snapshots can be compared as sets.
func stackKey(g string) string {
	if i := strings.IndexByte(g, '\n'); i >= 0 {
		return g[i+1:]
	}
	return g
}

// CheckGoroutines snapshots the current goroutine set and registers a
// cleanup that fails the test if goroutines not present at the snapshot —
// and not matching the benign filters — are still running when the test
// ends. Shutdown is asynchronous (connection handlers unwinding, workers
// draining), so the check retries for up to grace before reporting.
func CheckGoroutines(t TB, grace time.Duration) {
	t.Helper()
	if grace <= 0 {
		grace = 2 * time.Second
	}
	before := make(map[string]int)
	for _, g := range interestingStacks() {
		before[stackKey(g)]++
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var leaked []string
		for {
			leaked = leaked[:0]
			seen := make(map[string]int)
			for _, g := range interestingStacks() {
				key := stackKey(g)
				seen[key]++
				if seen[key] > before[key] {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d goroutine(s) outlived the test:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// CheckPoolBalance samples the tensor buffer pool's outstanding count and
// registers a cleanup asserting it grew by at most maxGrowth. Zero growth
// is too strict a contract: pooled ExecContexts legitimately retain their
// scratch buffers between runs, so a bounded allowance covers the contexts
// a test's apps and servers create, while an unbounded climb — a PutBuf
// missing on some error path — still fails.
func CheckPoolBalance(t TB, maxGrowth int64) {
	t.Helper()
	before := tensor.ReadPoolStats().Outstanding()
	t.Cleanup(func() {
		after := tensor.ReadPoolStats().Outstanding()
		if grew := after - before; grew > maxGrowth {
			t.Errorf("pooled-buffer leak: outstanding buffers grew %d (from %d to %d), allowance %d",
				grew, before, after, maxGrowth)
		}
	})
}

// LeakCheck applies both checkers with defaults suitable for integration
// tests: a 2-second goroutine grace and a pool allowance that covers the
// execution contexts a handful of apps retain.
func LeakCheck(t TB) {
	t.Helper()
	CheckGoroutines(t, 2*time.Second)
	CheckPoolBalance(t, 256)
}

// Seed formats a replay seed for failure messages so every soak failure
// tells the reader how to reproduce it.
func Seed(seed int64) string {
	return fmt.Sprintf("replay with seed %d", seed)
}

// WriteFrameVersion writes msg as one frame, like protocol.Write, but
// stamped with the given protocol version byte: a peer of another version.
func WriteFrameVersion(w io.Writer, msg protocol.Message, version byte) error {
	var buf bytes.Buffer
	if err := protocol.Write(&buf, msg); err != nil {
		return err
	}
	frame := buf.Bytes()
	frame[4] = version
	_, err := w.Write(frame)
	return err
}
