package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Tracer records a tree of timed spans — the per-stage timing breakdown the
// CLIs print with -profile. It is deliberately minimal: spans carry a name,
// a wall-clock duration and children; there is no context propagation or
// export protocol. Span creation is two small allocations, cheap enough for
// per-batch (not per-item) granularity. A tracer keeps only the newest
// maxRoots (256) root spans, so a long-running pipeline that starts a tree
// per batch holds a bounded trace.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// maxRoots bounds a Tracer's root spans, far above the five trees
// -profile's default run starts.
const maxRoots = 256

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is one timed region. End it exactly once; children must end before
// their parent for the rendered percentages to be meaningful.
type Span struct {
	name  string
	start time.Time
	dur   time.Duration
	done  bool

	mu       sync.Mutex
	children []*Span
}

// Start opens a new root span, dropping the oldest root when the tracer
// already holds maxRoots.
func (t *Tracer) Start(name string) *Span {
	sp := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	if len(t.roots) == maxRoots {
		copy(t.roots, t.roots[1:])
		t.roots = t.roots[:maxRoots-1]
	}
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

// Child opens a sub-span of s.
func (s *Span) Child(name string) *Span {
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span and returns its duration. Ending twice keeps the first
// duration.
func (s *Span) End() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	return s.dur
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Duration returns the span's duration (elapsed-so-far if still open).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// Children returns a copy of the span's children.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Roots returns a copy of the tracer's root spans.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Reset discards all recorded spans.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.roots = nil
	t.mu.Unlock()
}

// Render prints the span tree with durations and percent-of-parent, e.g.
//
//	batch-0                          41.2ms
//	  classify                       38.9ms  94.4%
//	  evaluate                        1.8ms   4.4%
func (t *Tracer) Render() string {
	var b strings.Builder
	for _, sp := range t.Roots() {
		renderSpan(&b, sp, 0, 0)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int, parent time.Duration) {
	d := s.Duration()
	pad := strings.Repeat("  ", depth)
	line := fmt.Sprintf("%-40s %12s", pad+s.name, d.Round(time.Microsecond))
	if parent > 0 {
		line += fmt.Sprintf("  %5.1f%%", 100*float64(d)/float64(parent))
	}
	b.WriteString(line + "\n")
	for _, c := range s.Children() {
		renderSpan(b, c, depth+1, d)
	}
}
