package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/rank"
	"quantilelb/internal/sharded"
)

// stream-ingest: one closed-loop connection POSTs text bodies of float64s
// to /v1/update of a 16-shard GK node; every 8th request is a 4-φ read.
// The bodies are a fixed rotation, so the ingested multiset after u updates
// is ⌊u/B⌋ copies of the rotation plus its first u mod B bodies, and the
// oracle is exact whatever order the bodies arrive in.
//
// One connection, not two: with two, a read's inline snapshot rebuild on
// one connection and the updates of the other share the two CPUs in an
// order that changes from run to run, and over five seeds the update and
// read p50s spread by 0.22 and 0.25 of their medians, against 0.06 and
// 0.07 with one.
const (
	streamEps     = 0.001
	streamShards  = 16
	streamRefresh = 4096
	streamBodies  = 128 // bodies in the rotation
	streamItems   = 512 // values per body

	// Work per second of -seconds: about 0.8 s of ingest and 0.25 s of
	// pull rounds on the reference machine.
	streamOpsPerSecond    = 300
	streamRoundsPerSecond = 5.5
	readEvery             = 8 // every readEvery-th request of a loop is a read
	streamSlices          = 10

	// The stream node's set-up is shorter than the others', so it is
	// timed more often.
	streamSetups = 15
)

var (
	streamPhis  = []float64{0.5, 0.9, 0.99, 0.999}
	streamQuery = quantileURL("/v1/quantile", streamPhis)
	// checkPhis is the fixed sample of quantiles every final check asks.
	checkPhis = func() []float64 {
		var out []float64
		for i := 1; i < 1000; i++ {
			out = append(out, float64(i)/1000)
		}
		return out
	}()
)

type gkSharded = sharded.Sharded[float64, *gk.Summary[float64]]

// streamInputs is the generated rotation: one POST /v1/update per body.
type streamInputs struct {
	updates []*request
	lo, hi  float64 // range of the generated values
}

type streamEnv struct {
	node *gkSharded
	stop func()
	srv  *server
}

func (e *streamEnv) close() {
	e.srv.Close()
	e.stop()
}

// streamValues generates the rotation: bodies of exponential values.
func streamValues(seed int64, bodies, per int) [][]float64 {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	out := make([][]float64, bodies)
	for i := range out {
		out[i] = make([]float64, per)
		for j := range out[i] {
			out[i][j] = r.ExpFloat64() * 100
		}
	}
	return out
}

func newGKNode() *gkSharded {
	return sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(streamEps) }, streamShards, sharded.WithRefreshEvery(streamRefresh))
}

// genStream generates the stream workload's requests from the seed.
func (b *bench) genStream() *streamInputs {
	vals := streamValues(b.seed, b.size(streamBodies, 8), b.size(streamItems, 256))
	in := &streamInputs{lo: vals[0][0], hi: vals[0][0]}
	for _, vs := range vals {
		body := make([]byte, 0, 20*len(vs))
		for _, v := range vs {
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
			body = append(body, '\n')
			in.lo, in.hi = min(in.lo, v), max(in.hi, v)
		}
		in.updates = append(in.updates, &request{method: "POST", path: "/v1/update", ctype: "text/plain",
			body: body, items: len(vs), vals: vs})
		b.digest(body)
	}
	b.digest([]byte(streamQuery))
	b.printDigest()
	return in
}

// setupStream builds the node, starts serving it, and warms it up with one
// pass of the rotation over one connection.
func (b *bench) setupStream(in *streamInputs) (*streamEnv, error) {
	e := &streamEnv{node: newGKNode()}
	srv, err := b.serve("stream", cluster.NewServerHandler(e.node))
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.stop = e.node.AutoRefresh(time.Second)
	bind(srv.URL, in.updates...)
	c := newClient()
	defer c.CloseIdleConnections()
	for _, r := range in.updates {
		b.send(c, r)
	}
	return e, nil
}

func runStream(b *bench) error {
	in := b.genStream()
	e, err := setupN(b, streamSetups, func() (*streamEnv, error) { return b.setupStream(in) }, (*streamEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	c := newClient()
	defer c.CloseIdleConnections()

	// The u-th update of the run carries rotation body u mod B, whichever
	// phase sends it; the set-up sent the first B.
	u := int64(len(in.updates))
	nextUpdate := func() *request {
		r := in.updates[u%int64(len(in.updates))]
		u++
		return r
	}
	query := &request{method: "GET", url: e.srv.URL + streamQuery}
	src := cluster.Source(&cluster.HTTPSource{URL: e.srv.URL, Client: c, Fresh: true, Delta: true})
	agg := cluster.New(b.traceSource(src))

	// recovery times one recovery: a fresh node re-seeded with the
	// aggregator's merged snapshot over POST /v1/merge, until it answers a
	// read.
	var recs []float64
	recovery := func() (*gkSharded, error) {
		payload, _, err := agg.SnapshotPayload()
		if err != nil {
			return nil, fmt.Errorf("stream: aggregator snapshot: %w", err)
		}
		var node *gkSharded
		d, err := timeN(1, func() error {
			node = newGKNode()
			srv, err := b.serve("stream-recovered", cluster.NewServerHandler(node))
			if err != nil {
				return err
			}
			defer srv.Close()
			b.send(c, &request{method: "POST", url: srv.URL + "/v1/merge", body: payload})
			b.send(c, &request{method: "GET", url: srv.URL + streamQuery})
			return nil
		})
		recs = append(recs, d)
		return node, err
	}

	// Ingest, recovery and pull rounds take turns, so that the samples of
	// every metric span the whole run and a slow spell of the machine moves
	// each of them a little instead of one of them much. The closed-loop
	// requests run in streamSlices slices spread evenly over the rounds;
	// each round times one recovery, then sends one further update and
	// times one pull of the node's fresh snapshot. Few slices, not one per
	// round, so that the updates that follow other work stay well below
	// 1% of them and out of update_p99_ms. The timed parts never overlap.
	var st loopStats
	var refreshes int
	rounds := b.count(streamRoundsPerSecond, 5)
	ops := int64(b.count(streamOpsPerSecond, 160))
	slices := int64(min(rounds, streamSlices))
	slice := map[int]int64{} // the round each slice of requests precedes
	for k := int64(0); k < slices; k++ {
		slice[int(int64(rounds)*k/slices)] = k
	}
	err = b.pullPhase(agg, agg.Status, rounds, func(round int) {
		if k, ok := slice[round]; ok {
			before := e.node.Stats().Refreshes
			b.closedLoop(&st, c, ops*k/slices, ops*(k+1)/slices,
				func(i int64) *request {
					if i%readEvery == readEvery-1 {
						return query
					}
					return nextUpdate()
				},
				func(r *request, rep reply) error {
					if r.items > 0 {
						return nil
					}
					return checkRead(rep.body, len(streamPhis), in.lo, in.hi)
				})
			refreshes += e.node.Stats().Refreshes - before
		}
		if _, err := recovery(); err != nil {
			b.fail("%v", err)
		}
		b.send(c, nextUpdate())
	})
	if err != nil {
		return err
	}
	b.setLoop(st)
	if b.tr != nil {
		// The sharded.UpdateBatch span of each acked update: its batch
		// replayed into a second node after the phase.
		shadow := newGKNode()
		b.replayAcked("sharded.UpdateBatch", st.acks, func(r *request) { shadow.UpdateBatch(r.vals) })
	}
	b.setLayer("cluster.request_bytes_per_item", "B", bytesPerItem(in.updates))
	b.setLayer("sharded.refreshes_per_query", "ratio", safeDiv(float64(refreshes), float64(len(st.qry))))

	// Final answers of the node, the aggregator and one more recovered
	// node, against the oracle.
	o := newRotationOracle(in.updates, u)
	if body := b.send(c, &request{method: "GET", url: e.srv.URL + quantileURL("/v1/quantile", checkPhis)}); body != nil {
		b.checkReply("stream node", body, o, streamEps)
	}
	last, err := recovery()
	if err != nil {
		return err
	}
	b.set("recovery_s", "s", quantile(recs, 0.5))
	for _, phi := range checkPhis {
		v, _ := agg.Query(phi)
		o.check(b, "stream aggregator", phi, v, streamEps)
		v, _ = last.Query(phi)
		o.check(b, "recovered stream node", phi, v, streamEps)
	}

	in = nil
	b.measureHeap()
	if b.tr != nil {
		b.streamLayers(e.node)
	}
	return nil
}

// streamLayers runs the layer probes on the stream workload's own inputs,
// generated again from the seed.
func (b *bench) streamLayers(node *gkSharded) {
	vals := streamValues(b.seed, b.size(streamBodies, 8), b.size(streamItems, 256))
	batches := make([]batch, len(vals))
	for i, vs := range vals {
		batches[i] = batch{key: "stream", vals: vs}
	}
	b.probeSharded(batches, streamEps)
	b.setLayer("gk.stored_tuples", "count", float64(node.Stats().SnapshotStored))
	b.probeStore(batches, streamEps, nil)
	// The encoding probe sees what a flat aggregator over the 16 shards
	// would: one GK payload per shard, before and after one more batch.
	shards := make([]*gk.Summary[float64], streamShards)
	for i := range shards {
		shards[i] = gk.NewFloat64(streamEps)
	}
	for i, bt := range batches {
		shards[i%streamShards].UpdateBatch(bt.vals)
	}
	base := encodeAll(shards)
	for i, bt := range batches[:min(len(batches), streamShards)] {
		shards[i].UpdateBatch(bt.vals)
	}
	b.probeEncoding(base, encodeAll(shards))
}

func encodeAll(sums []*gk.Summary[float64]) [][]byte {
	out := make([][]byte, len(sums))
	for i, s := range sums {
		p, err := encoding.EncodeGK(s)
		if err != nil {
			panic(err) // a GK summary always encodes
		}
		out[i] = p
	}
	return out
}

// rotationOracle is the exact rank oracle of a stream made of q full
// rotations of the bodies plus the first r bodies.
type rotationOracle struct {
	full, prefix *rank.Oracle[float64]
	q            int
	n            int
}

func newRotationOracle(rot []*request, updates int64) *rotationOracle {
	var all, pre []float64
	r := int(updates % int64(len(rot)))
	for i, req := range rot {
		all = append(all, req.vals...)
		if i < r {
			pre = append(pre, req.vals...)
		}
	}
	q := int(updates / int64(len(rot)))
	return &rotationOracle{full: rank.Float64Oracle(all), prefix: rank.Float64Oracle(pre), q: q, n: q*len(all) + len(pre)}
}

func (o *rotationOracle) check(b *bench, what string, phi, v, eps float64) {
	lt := o.q*(o.full.Rank(v)-1) + o.prefix.Rank(v) - 1
	le := o.q*o.full.RankLE(v) + o.prefix.RankLE(v)
	b.checkAnswer(what, phi, v, o.n, lt, le, eps)
}

// checkReply checks every answer of a /quantile reply against o.
func (b *bench) checkReply(what string, body []byte, o *rotationOracle, eps float64) {
	var q quantileReply
	if err := json.Unmarshal(body, &q); err != nil || q.N != o.n {
		b.fail("%s: reply %q: want n=%d (%v)", what, body, o.n, err)
		return
	}
	for _, r := range q.Results {
		o.check(b, what, r.Phi, r.Value, eps)
	}
}
