package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"

	"quantilelb/internal/cluster"
	"quantilelb/internal/rank"
	"quantilelb/internal/store"
)

// agg-tree: sixteen in-process keyed leaves, each holding the same keys
// (one in four promoted to a GK sketch in set-up), pulled over HTTP by one
// KeyedAggregator with delta negotiation on. Each round POSTs updates of
// aggMutKeys keys on each of aggMutLeaves rotating leaves, then times one
// PullOnce, then reads aggReads keys from the root over HTTP. The root's
// view after a pull covers every acked update, so each checked root answer
// has the exact oracle of its key's union stream.
const (
	aggLeaves    = 16
	aggEps       = 0.01
	aggPromoted  = 4   // one key in aggPromoted starts promoted
	aggHotItems  = 256 // set-up items per promoted key and leaf
	aggColdItems = 32  // set-up items per other key and leaf
	aggMutLeaves = 4
	aggMutKeys   = 25
	aggMutItems  = 16
	aggReads     = 64

	// Every aggRecoverEvery-th round also times a recovery.
	aggRecoverEvery = 4

	// Pull rounds per second of -seconds: about 0.9 s of rounds, mutations
	// and reads on the reference machine.
	aggRoundsPerSecond = 5
)

var aggPhis = []float64{0.5, 0.99}

type aggRound struct {
	updates []*request
	reads   []*request
}

// aggInputs is the agg-tree workload's generated inputs.
type aggInputs struct {
	keys   []string
	pop    [][][]float64        // set-up items per leaf and key
	union  map[string][]float64 // every item of each key, over all leaves
	rounds []aggRound           // the round rotation
}

type aggEnv struct {
	*aggInputs
	leaves  []*store.Store
	servers []*server
	agg     *cluster.KeyedAggregator
	root    *server
}

func (e *aggEnv) close() {
	if e.root != nil {
		e.root.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

// genAggTree generates every leaf's set-up items and the round rotation
// from the seed.
func (b *bench) genAggTree() *aggInputs {
	nKeys := b.size(500, 40)
	r := rand.New(rand.NewPCG(uint64(b.seed), 0xa66))
	draw := func(k int) float64 { return math.Exp(2 + 0.3*float64(k%5) + 0.8*r.NormFloat64()) }
	in := &aggInputs{union: map[string][]float64{}, pop: make([][][]float64, aggLeaves)}
	for k := 0; k < nKeys; k++ {
		in.keys = append(in.keys, fmt.Sprintf("tenant.%03d.p99", k))
	}
	for l := range in.pop {
		in.pop[l] = make([][]float64, nKeys)
		for k, key := range in.keys {
			n := aggColdItems
			if k%aggPromoted == 0 {
				n = aggHotItems
			}
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = draw(k)
			}
			in.pop[l][k] = vals
			in.union[key] = append(in.union[key], vals...)
			b.digest([]byte(key), floatBytes(vals))
		}
	}
	for i := 0; i < b.size(256, 8); i++ {
		var rd aggRound
		for j := 0; j < aggMutLeaves; j++ {
			leaf := (i*aggMutLeaves + j) % aggLeaves
			for m := 0; m < aggMutKeys; m++ {
				k := r.IntN(nKeys)
				vals := make([]float64, aggMutItems)
				for x := range vals {
					vals[x] = draw(k)
				}
				req := &request{method: "POST", path: "/v1/k/" + in.keys[k] + "/update", ctype: "application/json",
					body: jsonArray(vals), items: len(vals), key: in.keys[k], vals: vals, node: leaf}
				rd.updates = append(rd.updates, req)
				b.digest([]byte(strconv.Itoa(leaf)+" "+req.path), req.body)
			}
		}
		for j := 0; j < aggReads; j++ {
			k := r.IntN(nKeys)
			req := &request{method: "GET", path: quantileURL("/v1/k/"+in.keys[k]+"/quantile", aggPhis), key: in.keys[k]}
			rd.reads = append(rd.reads, req)
			b.digest([]byte(req.path))
		}
		in.rounds = append(in.rounds, rd)
	}
	b.printDigest()
	return in
}

// setupAggTree builds and populates the leaves, serves them, and starts the
// aggregator and the root that serves it.
func (b *bench) setupAggTree(in *aggInputs) (*aggEnv, error) {
	e := &aggEnv{aggInputs: in}
	var sources []cluster.Source
	for l := 0; l < aggLeaves; l++ {
		leaf := store.New(store.Config{Eps: aggEps})
		for k, key := range in.keys {
			leaf.UpdateBatch(key, in.pop[l][k])
		}
		srv, err := b.serve("leaf", cluster.NewKeyedServerHandler(leaf))
		if err != nil {
			e.close()
			return nil, err
		}
		e.leaves = append(e.leaves, leaf)
		e.servers = append(e.servers, srv)
		sources = append(sources, b.traceSource(&cluster.HTTPSource{
			URL: srv.URL, Client: newClient(), Path: "/v1/store/snapshot", Delta: true}))
	}
	e.agg = cluster.NewKeyed(sources...)
	root, err := b.serve("root", cluster.NewKeyedAggregatorHandler(e.agg))
	if err != nil {
		e.close()
		return nil, err
	}
	e.root = root
	return e, nil
}

func runAggTree(b *bench) error {
	in := b.genAggTree()
	e, err := setupN(b, setups, func() (*aggEnv, error) { return b.setupAggTree(in) }, (*aggEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	e.pop = nil
	for _, rd := range e.rounds {
		for _, req := range rd.updates {
			bind(e.servers[req.node].URL, req)
		}
		bind(e.root.URL, rd.reads...)
	}
	c := newClient()
	defer c.CloseIdleConnections()

	// recovery times one cold root — fresh sources with no ETag — pulling
	// every leaf in full and serving a read.
	checked := e.checkedKeys(b.seed)
	var recs []float64
	recovery := func() (*cluster.KeyedAggregator, error) {
		var root *cluster.KeyedAggregator
		d, err := timeN(1, func() error {
			var sources []cluster.Source
			for _, s := range e.servers {
				sources = append(sources, &cluster.HTTPSource{URL: s.URL, Client: c, Path: "/v1/store/snapshot", Delta: true})
			}
			root = cluster.NewKeyed(sources...)
			if err := root.PullOnce(context.Background()); err != nil {
				return fmt.Errorf("agg-tree: cold pull: %w", err)
			}
			w := httptest.NewRecorder()
			h := cluster.NewKeyedAggregatorHandler(root)
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/k/"+e.keys[checked[0]]+"/quantile?phi=0.5", nil))
			if w.Code != 200 {
				return fmt.Errorf("agg-tree: cold root answered %d: %s", w.Code, w.Body)
			}
			return nil
		})
		recs = append(recs, d)
		return root, err
	}

	// Each round reads the previous round's keys from the root, every
	// aggRecoverEvery-th round times one recovery, and the round updates
	// the leaves and times one pull. The recoveries so span the whole run.
	// Every 8th root read is checked: after a pull the root covers every
	// acked update. Leaf updates and root reads keep separate clocks, so
	// ingest throughput is the updates' own.
	var upd, qry loopStats
	update := func(r *request, _ reply) error {
		e.union[r.key] = append(e.union[r.key], r.vals...)
		return nil
	}
	reads := 0
	read := func(r *request, rep reply) error {
		if reads++; reads%readEvery == 1 {
			b.checkKeyReply("agg-tree root", rep.body, rank.Float64Oracle(e.union[r.key]), aggEps)
		}
		return nil
	}
	sendAll := func(st *loopStats, reqs []*request, check func(*request, reply) error) {
		b.closedLoop(st, c, 0, int64(len(reqs)), func(i int64) *request { return reqs[i] }, check)
	}
	rounds := b.count(aggRoundsPerSecond, 5)
	err = b.pullPhase(e.agg, e.agg.Status, rounds, func(i int) {
		if i > 0 {
			sendAll(&qry, e.rounds[(i-1)%len(e.rounds)].reads, read)
		}
		if i%aggRecoverEvery == aggRecoverEvery-1 {
			if _, err := recovery(); err != nil {
				b.fail("%v", err)
			}
		}
		sendAll(&upd, e.rounds[i%len(e.rounds)].updates, update)
	})
	if err != nil {
		return err
	}
	sendAll(&qry, e.rounds[(rounds-1)%len(e.rounds)].reads, read)
	if b.tr != nil {
		// The store.UpdateBatch span of each acked leaf update: its batch
		// replayed into a second store after the phase.
		shadow := store.New(store.Config{Eps: aggEps})
		b.replayAcked("store.UpdateBatch", upd.acks, func(r *request) { shadow.UpdateBatch(r.key, r.vals) })
	}
	var updates []*request
	for _, rd := range e.rounds {
		updates = append(updates, rd.updates...)
	}
	b.setLayer("cluster.request_bytes_per_item", "B", bytesPerItem(updates))
	upd.qry, upd.ops, upd.busy = qry.qry, upd.ops+qry.ops, upd.busy+qry.busy
	b.setLoop(upd)

	last, err := recovery()
	if err != nil {
		return err
	}
	b.set("recovery_s", "s", quantile(recs, 0.5))

	// Final answers of the root over HTTP and of the recovered root.
	for _, k := range checked {
		o := rank.Float64Oracle(e.union[e.keys[k]])
		url := e.root.URL + quantileURL("/v1/k/"+e.keys[k]+"/quantile", checkPhis)
		if body := b.send(c, &request{method: "GET", url: url}); body != nil {
			b.checkKeyReply("agg-tree root", body, o, aggEps)
		}
		for _, phi := range checkPhis {
			v, _ := last.Query(e.keys[k], phi)
			b.checkOracle("recovered root", o, phi, v, aggEps)
		}
	}

	last, e.rounds, e.union = nil, nil, nil
	b.measureHeap()
	if b.tr != nil {
		b.aggTreeLayers(e.leaves)
	}
	return nil
}

// aggTreeLayers runs the layer probes on the workload's own leaf updates,
// generated again from the seed, and on the leaves' snapshot payloads
// before and after one more round of updates.
func (b *bench) aggTreeLayers(leaves []*store.Store) {
	in := newBench(b.config, nil, io.Discard).genAggTree()
	var batches []batch
	for _, rd := range in.rounds {
		for _, req := range rd.updates {
			batches = append(batches, batch{key: req.key, vals: req.vals})
		}
	}
	b.probeSharded(batches, aggEps)
	var retained int
	for _, l := range leaves {
		retained += l.Stats().RetainedItems
	}
	b.setLayer("gk.stored_tuples", "count", float64(retained))
	b.probeStore(batches, aggEps, leaves)
	base := snapshots(leaves)
	for _, req := range in.rounds[0].updates {
		leaves[req.node].UpdateBatch(req.key, req.vals)
	}
	b.probeEncoding(base, snapshots(leaves))
}

// snapshots returns every leaf's store snapshot payload.
func snapshots(leaves []*store.Store) [][]byte {
	out := make([][]byte, len(leaves))
	for i, l := range leaves {
		out[i], _, _ = l.SnapshotPayload()
	}
	return out
}

// checkedKeys is the fixed sample of keys whose final answers are checked:
// every promoted key and as many others.
func (e *aggEnv) checkedKeys(seed int64) []int {
	r := rand.New(rand.NewPCG(uint64(seed), 0xc4ec))
	var out []int
	for k := 0; k < len(e.keys); k += aggPromoted {
		out = append(out, k, r.IntN(len(e.keys)))
	}
	return out
}
