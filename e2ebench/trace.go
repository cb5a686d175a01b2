package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/cluster"
)

// Spans of the traced pass. A span is recorded at each boundary the
// benchmark's own code crosses into a module: the client request, the
// node's ServeHTTP (timed by a wrapping handler), a source Fetch, a pull
// round, and the benchmark's direct calls into sharded, store, gk and
// encoding. Spans of one request share its request id. Spans stay in memory
// and are written out when the run ends.

// Request headers that carry the client span and request id to the server
// wrapper, which parents its serve span on them.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	round atomic.Int64 // span id of the pull round in flight
	mu    sync.Mutex
	spans []*span
	serve map[int64]*span // request id → its serve span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), serve: map[int64]*span{}}
}

func (t *tracer) start(name string, parent, req int64) *span {
	return &span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s *span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if strings.HasPrefix(s.Name, "cluster.serve.") && s.Req != 0 {
		t.serve[s.Req] = s
	}
	t.mu.Unlock()
}

// call times f as a span named name, under the serve span of request req
// when there is one, and returns its duration.
func (t *tracer) call(name string, req int64, f func()) time.Duration {
	t.mu.Lock()
	parent := int64(0)
	if s, ok := t.serve[req]; ok {
		parent = s.ID
	}
	t.mu.Unlock()
	s := t.start(name, parent, req)
	f()
	t.end(s)
	return s.dur()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// wrapHandler times every request h serves as a serve span, named by what
// the request does, parented on the client span the request carries.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		kind := "query"
		switch {
		case strings.HasSuffix(r.URL.Path, "/update"):
			kind = "update"
		case strings.HasSuffix(r.URL.Path, "snapshot"):
			kind = "snapshot"
			parent = t.round.Load()
		case r.Method == http.MethodPost:
			kind = "merge"
		}
		s := t.start("cluster.serve."+kind, parent, req)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// tracedSource times each Fetch of the wrapped source as a cluster.Fetch
// span under the pull round in flight.
type tracedSource struct {
	cluster.Source
	t *tracer
}

func (s tracedSource) Fetch(ctx context.Context, etag string) ([]byte, string, bool, error) {
	sp := s.t.start("cluster.Fetch", s.t.round.Load(), 0)
	payload, tag, notModified, err := s.Source.Fetch(ctx, etag)
	s.t.end(sp)
	return payload, tag, notModified, err
}

// durations returns the durations of spans in milliseconds.
func durations(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// layerMetrics derives the per-layer metrics that come from spans and adds
// them to the ones the probes measured directly.
func (b *bench) layerMetrics() map[string]metric {
	t := b.tr
	serveUpd := t.byName("cluster.serve.update")
	b.setLayer("cluster.serve_update_p50_ms", "ms", quantile(durations(serveUpd), 0.5))
	b.setLayer("cluster.serve_query_p50_ms", "ms", quantile(durations(t.byName("cluster.serve.query")), 0.5))

	// Loopback: the client-observed time minus the serve time of the same
	// request. Parse self time: the serve time of an update minus the
	// benchmark's direct call of the layer below on the same batch.
	t.mu.Lock()
	var loop, parse []float64
	direct := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Req != 0 && (s.Name == "sharded.UpdateBatch" || s.Name == "store.UpdateBatch") {
			direct[s.Req] = s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Name != "client.update" && s.Name != "client.query" {
			continue
		}
		sv, ok := t.serve[s.Req]
		if !ok {
			continue
		}
		loop = append(loop, ms(s.dur()-sv.dur()))
		if d, ok := direct[s.Req]; ok {
			parse = append(parse, ms(sv.dur()-d))
		}
	}
	t.mu.Unlock()
	b.setLayer("cluster.loopback_p50_ms", "ms", quantile(loop, 0.5))
	b.setLayer("cluster.parse_self_p50_ms", "ms", quantile(parse, 0.5))
	return b.layer
}
