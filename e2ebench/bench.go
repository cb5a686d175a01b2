package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/cluster"
	"quantilelb/internal/rank"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	tiny     bool // smoke-test sizes, set by the test: every phase runs, the tails are not steady
	dir      string
}

// bench is the state of one pass of a workload: the counters behind the
// result line, the checked answers' errors, and the metrics.
type bench struct {
	config
	tr  *tracer // nil in the untraced pass
	log io.Writer

	attempted atomic.Int64
	failed    atomic.Int64
	failLog   atomic.Int64

	mu     sync.Mutex
	errors []float64 // rank error ÷ εN of every checked answer

	metrics map[string]metric
	layer   map[string]metric // per-layer metrics of the traced pass
	inputs  hash.Hash         // digest of every generated input byte
}

func newBench(cfg config, tr *tracer, log io.Writer) *bench {
	return &bench{config: cfg, tr: tr, log: log, metrics: map[string]metric{}, layer: map[string]metric{}, inputs: sha256.New()}
}

// size picks the full or the smoke-test value of a workload parameter.
func (b *bench) size(full, tiny int) int {
	if b.tiny {
		return tiny
	}
	return full
}

// count sizes a phase by its work, not by a timer: perSecond operations
// per second of -seconds (rates of the reference machine, 2 CPUs), so that
// every run of a workload does the same work, and a faster program shows
// as a shorter phase. tiny is the smoke-test count.
func (b *bench) count(perSecond float64, tiny int) int {
	if b.tiny {
		return tiny
	}
	return max(1, int(perSecond*b.seconds))
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) setLayer(name, unit string, v float64) {
	if b.tr != nil {
		b.layer[name] = metric{Value: v, Unit: unit}
	}
}

// fail counts one failed operation and logs the first few.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	if b.failLog.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	}
}

func (b *bench) correct() bool { return b.failed.Load() == 0 && len(b.errors) > 0 }

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.correct(), Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: m}
}

// digest feeds generated input bytes into the input digest.
func (b *bench) digest(parts ...[]byte) {
	for _, p := range parts {
		b.inputs.Write(p)
		b.inputs.Write([]byte{0})
	}
}

// printDigest prints the digest of the generated inputs: two runs with the
// same seed send the same bytes exactly when their digests agree.
func (b *bench) printDigest() {
	fmt.Fprintf(b.log, "# inputs sha256=%s\n", hex.EncodeToString(b.inputs.Sum(nil)))
}

// checkAnswer counts one oracle-checked answer: v answers the φ-quantile of
// a stream of n items whose exact ranks around v are lt (items < v) and le
// (items ≤ v). It fails the operation when the rank error exceeds εn + 1
// and keeps the error ÷ εn.
func (b *bench) checkAnswer(what string, phi, v float64, n, lt, le int, eps float64) {
	b.attempted.Add(1)
	target := rank.QuantileRank(n, phi)
	lo, hi := lt+1, le
	if hi < lo {
		hi = lo
	}
	e := 0
	switch {
	case target < lo:
		e = lo - target
	case target > hi:
		e = target - hi
	}
	allowed := eps * float64(n)
	b.mu.Lock()
	b.errors = append(b.errors, float64(e)/allowed)
	b.mu.Unlock()
	if float64(e) > allowed+1 {
		b.fail("%s: φ=%g answered %g with rank error %d > εN+1 = %.1f", what, phi, v, e, allowed+1)
	}
}

// checkOracle checks one answer against an oracle over the whole stream.
func (b *bench) checkOracle(what string, o *rank.Oracle[float64], phi, v, eps float64) {
	b.checkAnswer(what, phi, v, o.Len(), o.Rank(v)-1, o.RankLE(v), eps)
}

// measureHeap sets heap_mb, the heap in use after a collection. Workloads
// call it with their nodes live and the generated inputs released.
func (b *bench) measureHeap() {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.set("heap_mb", "MB", float64(mem.HeapInuse)/(1<<20))
}

// server is one in-process HTTP node on a loopback port.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on a fresh loopback port; in the traced pass every request
// is wrapped in a serve span. Close stops the server and waits for it.
func (b *bench) serve(name string, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for %s: %w", name, err)
	}
	if b.tr != nil {
		h = b.tr.wrapHandler(h)
	}
	s := &server{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Close stops the server and waits until it has stopped serving.
func (s *server) Close() {
	_ = s.srv.Close() // the only error is the listener's, which is going away
	<-s.done
}

// newClient returns a client that keeps one connection to each node alive.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// request is one pre-generated HTTP request. The generator fills in its
// path; bind sets its url once the node it goes to serves.
type request struct {
	method, path, url, ctype string
	body                     []byte
	items                    int       // items carried by an update; 0 for a read
	key                      string    // the keyed tiers' key
	vals                     []float64 // the items of an update
	node                     int       // agg-tree: the leaf an update goes to
}

// bind points every request at the node serving base.
func bind(base string, reqs ...*request) {
	for _, r := range reqs {
		r.url = base + r.path
	}
}

// reply is one answered request.
type reply struct {
	status int
	body   []byte
	d      time.Duration // client-observed latency
	req    int64         // request id of the traced pass; 0 untraced
}

// do sends one request. In the traced pass the request carries its request
// id and client span id, so the server wrapper can parent its serve span.
func (b *bench) do(c *http.Client, r *request) (reply, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(context.Background(), r.method, r.url, rd)
	if err != nil {
		return reply{}, err
	}
	if r.ctype != "" {
		hr.Header.Set("Content-Type", r.ctype)
	}
	var rep reply
	var sp *span
	if b.tr != nil {
		name := "client.query"
		if r.items > 0 {
			name = "client.update"
		}
		rep.req = b.tr.reqs.Add(1)
		sp = b.tr.start(name, 0, rep.req)
		hr.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
		hr.Header.Set(reqHeader, strconv.FormatInt(rep.req, 10))
	}
	t0 := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return rep, err
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.d = time.Since(t0)
	rep.status = resp.StatusCode
	if sp != nil {
		b.tr.end(sp)
	}
	return rep, err
}

// exchange sends one request, counts it as attempted, and counts it as
// failed on a transport error or a reply that is not 2xx; ok reports
// success.
func (b *bench) exchange(c *http.Client, r *request) (reply, bool) {
	b.attempted.Add(1)
	rep, err := b.do(c, r)
	switch {
	case err != nil:
		b.fail("%s %s: %v", r.method, r.url, err)
	case rep.status/100 != 2:
		b.fail("%s %s: status %d: %s", r.method, r.url, rep.status, rep.body)
	default:
		return rep, true
	}
	return rep, false
}

// sample is one client-observed latency, in ms, and when it ended on the
// loop's busy clock.
type sample struct {
	at time.Duration
	ms float64
}

// loopStats is what the closed-loop requests of a workload measured. Its
// clock is busy time, the sum of the requests' client-observed latencies,
// so the work a workload does between slices of the loop (pull rounds,
// recoveries, checks) is not charged to ingest.
type loopStats struct {
	upd, qry []sample // client-observed latencies
	acks     []ack    // acked updates, in completion order
	items    int64    // acked update items
	ops      int64    // requests sent
	busy     time.Duration
}

// ack is one acked update: when it completed, and its items. In the traced
// pass it also keeps the request and its id, for replayAcked.
type ack struct {
	at    time.Duration
	items int
	req   int64
	r     *request
}

// windowRates splits acks, in completion order, into windows of equal
// request counts and returns the acked items per second of each.
func windowRates(acks []ack, windows int) []float64 {
	per := max(1, len(acks)/windows)
	var rates []float64
	var prev time.Duration
	for lo := 0; lo+per <= len(acks); lo += per {
		items := 0
		for _, a := range acks[lo : lo+per] {
			items += a.items
		}
		end := acks[lo+per-1].at
		if end > prev {
			rates = append(rates, float64(items)/(end-prev).Seconds())
		}
		prev = end
	}
	return rates
}

// closedLoop sends the requests next(from), …, next(to-1) over one
// connection, each only after the previous reply arrived, and adds what
// they measured to st. A reply that is not 2xx, or that check rejects, is
// a failed operation.
func (b *bench) closedLoop(st *loopStats, c *http.Client, from, to int64, next func(i int64) *request, check func(r *request, rep reply) error) {
	for i := from; i < to; i++ {
		r := next(i)
		rep, ok := b.exchange(c, r)
		st.ops++
		st.busy += rep.d
		if r.items > 0 {
			st.upd = append(st.upd, sample{at: st.busy, ms: ms(rep.d)})
		} else {
			st.qry = append(st.qry, sample{at: st.busy, ms: ms(rep.d)})
		}
		if !ok {
			continue
		}
		if r.items > 0 {
			st.items += int64(r.items)
			a := ack{at: st.busy, items: r.items}
			if b.tr != nil {
				a.req, a.r = rep.req, r
			}
			st.acks = append(st.acks, a)
		}
		if check != nil {
			if err := check(r, rep); err != nil {
				b.fail("%s %s: %v", r.method, r.url, err)
			}
		}
	}
}

// replayAcked replays the updates a traced phase acked, after the phase has
// ended, through a direct call into the layer below the HTTP tier. Each call
// is a span named name, paired by request id with the update's serve span:
// the serve time minus it is the parse and routing above the layer. The
// replay runs outside every timed phase, so it adds nothing to the traced
// pass's end-to-end figures.
func (b *bench) replayAcked(name string, acks []ack, apply func(r *request)) {
	for _, a := range acks {
		b.tr.call(name, a.req, func() { apply(a.r) })
	}
}

// rateWindows is how many windows the closed-loop requests are cut into.
// Their throughput and latency percentiles are mid-means over the windows,
// so a burst of load from outside the benchmark moves one window, not the
// result.
const rateWindows = 20

// windowedQuantile returns the mid-mean, over consecutive windows of xs in
// time order, of each window's φ-quantile. Every window holds enough
// samples that at least 10 lie beyond its φ-quantile (one window when xs
// holds fewer), and there are at most rateWindows windows.
func windowedQuantile(xs []sample, phi float64) float64 {
	need := int(math.Ceil(10 / (1 - phi)))
	w := min(rateWindows, max(1, len(xs)/need))
	per := len(xs) / w
	var qs []float64
	for i := 0; i < w; i++ {
		win := make([]float64, per)
		for j, x := range xs[i*per : (i+1)*per] {
			win[j] = x.ms
		}
		qs = append(qs, quantile(win, phi))
	}
	return midMean(qs)
}

// midMean returns the mean of the middle half of xs (of all of xs when it
// holds fewer than four; 0 when empty), sorting xs in place. Like a median
// it ignores the outlying windows a burst from outside makes. Unlike a
// median, it moves in proportion as the share of slow windows changes: the
// machine alternates between slow and fast spells, and a median jumps
// between the two when about half the windows are slow.
func midMean(xs []float64) float64 {
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	if hi == lo {
		return 0
	}
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// setLoop sets the ingest and read metrics of a workload's closed-loop
// requests.
func (b *bench) setLoop(st loopStats) {
	b.set("ingest_items_per_s", "1/s", midMean(windowRates(st.acks, rateWindows)))
	b.set("update_p50_ms", "ms", windowedQuantile(st.upd, 0.50))
	b.set("update_p99_ms", "ms", windowedQuantile(st.upd, 0.99))
	b.set("query_p50_ms", "ms", windowedQuantile(st.qry, 0.50))
	b.set("query_p99_ms", "ms", windowedQuantile(st.qry, 0.99))
	fmt.Fprintf(b.log, "# loop ops=%d updates=%d reads=%d items=%d busy_s=%.2f\n", st.ops, len(st.upd), len(st.qry), st.items, st.busy.Seconds())
}

// timeN runs f n times, each after a garbage collection, and returns the
// median wall time in seconds.
func timeN(n int, f func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// quantile returns the nearest-rank φ-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, phi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(phi*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setups is how many times a run sets up keyed-wal or agg-tree; setup_s is
// the median. The cheap stream-ingest set-up runs more often.
const setups = 5

// setupN runs setup n times, timing each, keeps the last environment and
// closes the others, and sets setup_s to the median time. setup builds and
// starts the program's nodes from inputs generated beforehand, so setup_s
// is the program's set-up, not the generator's.
func setupN[E any](b *bench, n int, setup func() (E, error), closeEnv func(E)) (E, error) {
	var env E
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			closeEnv(env)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	b.set("setup_s", "s", quantile(ds, 0.5))
	return env, nil
}

// send sends one request outside any timed phase and returns the reply
// body, or nil when the request failed.
func (b *bench) send(c *http.Client, r *request) []byte {
	rep, ok := b.exchange(c, r)
	if !ok {
		return nil
	}
	return rep.body
}

// quantileReply is the JSON shape of a /quantile reply.
type quantileReply struct {
	Results []struct {
		Phi   float64 `json:"phi"`
		Value float64 `json:"value"`
	} `json:"results"`
	N int `json:"n"`
}

// checkRead checks a read answered mid-ingest, whose exact oracle is not
// pinned down by the replies: the answers must be present and in range.
func checkRead(body []byte, want int, lo, hi float64) error {
	var q quantileReply
	if err := json.Unmarshal(body, &q); err != nil {
		return err
	}
	if len(q.Results) != want || q.N <= 0 {
		return fmt.Errorf("reply %q: want %d answers", body, want)
	}
	for _, r := range q.Results {
		if r.Value < lo || r.Value > hi {
			return fmt.Errorf("answer %g for φ=%g outside the data's range [%g, %g]", r.Value, r.Phi, lo, hi)
		}
	}
	return nil
}

func quantileURL(path string, phis []float64) string {
	u := path + "?"
	for i, p := range phis {
		if i > 0 {
			u += "&"
		}
		u += "phi=" + strconv.FormatFloat(p, 'g', -1, 64)
	}
	return u
}

// bytesPerItem is the request body bytes per update item of reqs.
func bytesPerItem(reqs []*request) float64 {
	var nb, ni int
	for _, r := range reqs {
		nb += len(r.body)
		ni += r.items
	}
	return float64(nb) / float64(ni)
}

// pullPhase times rounds agg.PullOnce calls, each after mutate(round) has
// changed the peers' state, and sets the pull-round latency and the wire
// bytes per round.
func (b *bench) pullPhase(agg interface {
	PullOnce(context.Context) error
}, status func() []cluster.PeerStatus, rounds int, mutate func(round int)) error {
	if err := agg.PullOnce(context.Background()); err != nil { // the first, full pull
		return fmt.Errorf("first pull: %w", err)
	}
	wire0, fetch0 := wireBytes(status())
	runtime.GC()
	var lat []float64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		mutate(r)
		b.attempted.Add(1)
		var sp *span
		if b.tr != nil {
			sp = b.tr.start("cluster.PullOnce", 0, 0)
			b.tr.round.Store(sp.ID)
		}
		t0 := time.Now()
		err := agg.PullOnce(context.Background())
		lat = append(lat, ms(time.Since(t0)))
		if sp != nil {
			b.tr.end(sp)
		}
		if err != nil {
			b.fail("pull round %d: %v", r, err)
		}
	}
	if b.tr != nil {
		b.tr.round.Store(0)
	}
	peers := status()
	wire, fetches := wireBytes(peers)
	n := float64(rounds)
	b.set("wire_bytes_per_round", "B", float64(wire-wire0)/n)
	b.set("pull_round_p50_ms", "ms", quantile(lat, 0.5))
	b.set("pull_round_p90_ms", "ms", quantile(lat, 0.9))
	if b.tr != nil {
		var deltas, notMod int
		for _, p := range peers {
			deltas += p.DeltaFetches
			notMod += p.NotModified
		}
		full := fetches - fetch0 // fetches in the timed rounds
		var fetchMS float64
		for _, sp := range b.tr.byName("cluster.Fetch") {
			if sp.Parent != 0 { // a timed round's fetch
				fetchMS += ms(sp.dur())
			}
		}
		b.setLayer("cluster.fetch_ms_per_round", "ms", fetchMS/n)
		b.setLayer("cluster.delta_hit_ratio", "ratio", safeDiv(float64(deltas), float64(fetches-notMod)))
		b.setLayer("cluster.not_modified_ratio", "ratio", safeDiv(float64(notMod), float64(full)))
	}
	fmt.Fprintf(b.log, "# pull rounds=%d elapsed_s=%.2f\n", rounds, time.Since(start).Seconds())
	return nil
}

// traceSource wraps src in a Fetch span in the traced pass.
func (b *bench) traceSource(src cluster.Source) cluster.Source {
	if b.tr == nil {
		return src
	}
	return tracedSource{Source: src, t: b.tr}
}

func wireBytes(peers []cluster.PeerStatus) (bytes int64, fetches int) {
	for _, p := range peers {
		bytes += p.WireBytes
		fetches += p.Fetches
	}
	return bytes, fetches
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batch is one update of a workload, as the layer probes replay it.
type batch struct {
	key  string
	vals []float64
}
