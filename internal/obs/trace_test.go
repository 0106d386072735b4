package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerTree(t *testing.T) {
	tr := NewTracer()
	batch := tr.Start("batch-0")
	classify := batch.Child("classify")
	time.Sleep(time.Millisecond)
	classify.End()
	acct := batch.Child("accounting")
	acct.End()
	batch.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "batch-0" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "classify" || kids[1].Name() != "accounting" {
		t.Fatalf("children = %v", kids)
	}
	if kids[0].Duration() < time.Millisecond {
		t.Fatalf("classify duration = %v", kids[0].Duration())
	}
	if batch.Duration() < kids[0].Duration() {
		t.Fatal("parent must not be shorter than its child")
	}

	out := tr.Render()
	for _, want := range []string{"batch-0", "classify", "accounting", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Children are indented under the root.
	if !strings.Contains(out, "  classify") {
		t.Fatalf("expected indentation:\n%s", out)
	}

	tr.Reset()
	if len(tr.Roots()) != 0 || tr.Render() != "" {
		t.Fatal("reset must clear spans")
	}
}

func TestSpanDoubleEndKeepsFirst(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("x")
	d1 := sp.End()
	time.Sleep(2 * time.Millisecond)
	if d2 := sp.End(); d2 != d1 {
		t.Fatalf("second End changed duration: %v vs %v", d1, d2)
	}
}

// TestTracerConcurrent verifies span creation from many goroutines under
// -race: each worker opens its own child chain.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("worker")
			gc := c.Child("inner")
			gc.End()
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

// TestTracerKeepsNewestRoots: past maxRoots root spans the tracer drops the
// oldest, so Roots holds exactly the newest maxRoots in start order.
func TestTracerKeepsNewestRoots(t *testing.T) {
	tr := NewTracer()
	for i := 0; i <= maxRoots; i++ {
		tr.Start(fmt.Sprintf("batch-%d", i)).End()
	}
	roots := tr.Roots()
	if len(roots) != maxRoots {
		t.Fatalf("kept %d roots, want %d", len(roots), maxRoots)
	}
	for i, sp := range roots {
		if want := fmt.Sprintf("batch-%d", i+1); sp.Name() != want {
			t.Fatalf("root %d = %q, want %q", i, sp.Name(), want)
		}
	}
}
