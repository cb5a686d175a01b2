package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"quantilelb/internal/cluster"
	"quantilelb/internal/rank"
	"quantilelb/internal/store"
)

// keyed-wal: one closed-loop connection POSTs 64-item JSON batches to
// /v1/k/{key}/update of a persistent GK store (ε=0.01, default promotion,
// WAL on, WALSyncEvery 0: records reach the page cache, not the disk).
// Keys are zipf(1.1) over keys populated in set-up; every 8th request is a
// per-key read; a second goroutine checkpoints every kwCkptEvery updates.
// The requests are a fixed rotation sent in order over one connection, so
// every key's stream is known exactly.
const (
	kwEps      = 0.01
	kwBatch    = 64
	kwPopulate = 8   // items per key in set-up
	kwZipfS    = 1.1 // zipf exponent of key popularity
	kwCheckTop = 16  // the hottest keys are always among the checked ones
	kwCheckAny = 48  // plus this many keys drawn at random

	// Work per second of -seconds: about 0.4 s of ingest (eight
	// checkpoint cycles of 8192 updates at -seconds 25) and 0.5 s of pull
	// rounds on the reference machine.
	kwOpsPerSecond    = 3000
	kwRoundsPerSecond = 0.8
)

var kwPhis = []float64{0.5, 0.99}

// kwInputs is the keyed-wal workload's generated inputs.
type kwInputs struct {
	keys []string
	pop  [][]float64 // set-up items per key
	rot  []*request  // the request rotation
	rotK []int       // key index of each rotation request
	lo   float64
	hi   float64
}

type kwEnv struct {
	*kwInputs
	dir string
	cfg store.Config
	st  *store.Store
	srv *server
}

func (e *kwEnv) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.st != nil {
		_ = e.st.Close() // the run is over; its final checkpoint is moot
	}
	os.RemoveAll(e.dir)
}

// genKeyedWAL generates the keys, their set-up items and the request
// rotation from the seed.
func (b *bench) genKeyedWAL() *kwInputs {
	nKeys := b.size(50_000, 500)
	r := rand.New(rand.NewPCG(uint64(b.seed), 0x4b57))
	in := &kwInputs{lo: math.Inf(1), hi: math.Inf(-1)}
	draw := func(k int) float64 {
		v := math.Exp(1 + 0.5*float64(k%7) + 0.6*r.NormFloat64())
		in.lo, in.hi = min(in.lo, v), max(in.hi, v)
		return v
	}
	in.keys = make([]string, nKeys)
	in.pop = make([][]float64, nKeys)
	for k := range in.keys {
		in.keys[k] = fmt.Sprintf("svc.%05d.latency", k)
		for j := 0; j < kwPopulate; j++ {
			in.pop[k] = append(in.pop[k], draw(k))
		}
		b.digest([]byte(in.keys[k]), floatBytes(in.pop[k]))
	}
	zipf := rand.NewZipf(r, kwZipfS, 1, uint64(nKeys-1))
	for i := 0; i < b.size(16384, 512); i++ {
		k := int(zipf.Uint64())
		base := "/v1/k/" + in.keys[k]
		var req *request
		if i%readEvery == readEvery-1 {
			req = &request{method: "GET", path: quantileURL(base+"/quantile", kwPhis), key: in.keys[k]}
		} else {
			vals := make([]float64, kwBatch)
			for j := range vals {
				vals[j] = draw(k)
			}
			req = &request{method: "POST", path: base + "/update", ctype: "application/json",
				body: jsonArray(vals), items: kwBatch, key: in.keys[k], vals: vals}
		}
		in.rot = append(in.rot, req)
		in.rotK = append(in.rotK, k)
		b.digest([]byte(req.method+" "+base), req.body)
	}
	b.printDigest()
	return in
}

// setupKeyedWAL opens a store with its WAL, populates every key, takes the
// first checkpoint and starts serving the store.
func (b *bench) setupKeyedWAL(in *kwInputs) (*kwEnv, error) {
	dir, err := os.MkdirTemp(b.dir, "keyed-wal-")
	if err != nil {
		return nil, err
	}
	e := &kwEnv{kwInputs: in, dir: dir}
	e.cfg = store.Config{Eps: kwEps, Dir: filepath.Join(dir, "store"), WALSyncEvery: 0}
	if e.st, err = store.Open(e.cfg); err != nil {
		e.close()
		return nil, err
	}
	for k, key := range in.keys {
		e.st.UpdateBatch(key, in.pop[k])
	}
	if err := e.st.Checkpoint(); err != nil {
		e.close()
		return nil, err
	}
	if e.srv, err = b.serve("keyed-wal", cluster.NewKeyedServerHandler(e.st)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func runKeyedWAL(b *bench) error {
	in := b.genKeyedWAL()
	e, err := setupN(b, setups, func() (*kwEnv, error) { return b.setupKeyedWAL(in) }, (*kwEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	bind(e.srv.URL, e.rot...)
	c := newClient()
	defer c.CloseIdleConnections()
	next := func(i int64) *request { return e.rot[i%int64(len(e.rot))] }

	// Ingest phase, with a checkpoint every ckptEvery acked updates.
	ckptEvery := b.size(8192, 64)
	ckpt := make(chan struct{}, 1)
	ckptDone := make(chan int)
	go func() {
		n := 0
		for range ckpt {
			if err := e.st.Checkpoint(); err != nil {
				b.fail("checkpoint: %v", err)
			}
			n++
		}
		ckptDone <- n
	}()
	acked := 0
	var st loopStats
	runtime.GC()
	b.closedLoop(&st, c, 0, int64(b.count(kwOpsPerSecond, 6*64*8/7)), next,
		func(r *request, rep reply) error {
			if r.items == 0 {
				return checkRead(rep.body, len(kwPhis), e.lo, e.hi)
			}
			if acked++; acked%ckptEvery == 0 {
				select {
				case ckpt <- struct{}{}:
				default: // the previous checkpoint is still running
				}
			}
			return nil
		})
	close(ckpt)
	cycles := <-ckptDone
	b.setLoop(st)
	fmt.Fprintf(b.log, "# checkpoints %d\n", cycles)
	if b.tr != nil {
		// The store.UpdateBatch span of each acked update: its batch
		// replayed into a second store, WAL on, after the phase.
		shadow, err := store.Open(store.Config{Eps: kwEps, Dir: filepath.Join(e.dir, "shadow")})
		if err != nil {
			return err
		}
		b.replayAcked("store.UpdateBatch", st.acks, func(r *request) { shadow.UpdateBatch(r.key, r.vals) })
		_ = shadow.Close() // only its update spans are wanted
	}
	sent := st.ops
	b.setLayer("cluster.request_bytes_per_item", "B", bytesPerItem(e.rot))

	// Pull phase: a keyed aggregator pulls the node's store snapshot after
	// each further request.
	src := cluster.Source(&cluster.HTTPSource{URL: e.srv.URL, Client: c, Path: "/v1/store/snapshot", Delta: true})
	agg := cluster.NewKeyed(b.traceSource(src))
	err = b.pullPhase(agg, agg.Status, b.count(kwRoundsPerSecond, 5), func(int) {
		b.send(c, next(sent))
		sent++
	})
	if err != nil {
		return err
	}
	// Final answers of the node and of the aggregator.
	checked := e.checkedKeys(b.seed)
	oracles := e.oracles(checked, sent)
	for i, k := range checked {
		url := e.srv.URL + quantileURL("/v1/k/"+e.keys[k]+"/quantile", checkPhis)
		if body := b.send(c, &request{method: "GET", url: url}); body != nil {
			b.checkKeyReply("keyed-wal node", body, oracles[i], kwEps)
		}
		for _, phi := range checkPhis {
			v, _ := agg.Query(e.keys[k], phi)
			b.checkOracle("keyed-wal aggregator", oracles[i], phi, v, kwEps)
		}
	}

	// Recovery: checkpoint, send a fixed tail of requests into the WAL,
	// abandon the store, and time cold opens of copies of its directory.
	// Like a restarted process, each reopen runs with the node gone: the
	// node is closed first, so the reopen's collections do not scan it.
	if err := e.st.Checkpoint(); err != nil {
		return fmt.Errorf("keyed-wal: checkpoint: %w", err)
	}
	for j := 0; j < b.size(4096, 64); j++ {
		b.send(c, next(sent))
		sent++
	}
	e.srv.Close()
	e.srv = nil
	abandoned := filepath.Join(e.dir, "abandoned")
	if err := copyDir(e.cfg.Dir, abandoned); err != nil {
		return fmt.Errorf("keyed-wal: copying the store: %w", err)
	}
	oracles = e.oracles(checked, sent)
	keys := e.keys
	e.rot, e.rotK, e.pop = nil, nil, nil
	b.measureHeap()
	if b.tr != nil {
		b.keyedWALLayers(e.st)
	}
	_ = e.st.Close() // the abandoned copy is taken; this store's final checkpoint is moot
	e.st = nil

	// Each reopen is timed on its own copy, after a collection, with the
	// previous reopened store already checked and closed.
	var reopens []float64
	for i := 0; i < b.size(7, 2); i++ {
		cfg := e.cfg
		cfg.Dir = filepath.Join(e.dir, fmt.Sprintf("reopen-%d", i))
		if err := copyDir(abandoned, cfg.Dir); err != nil {
			return fmt.Errorf("keyed-wal: copying the store: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := store.Open(cfg)
		reopens = append(reopens, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("keyed-wal: reopening: %w", err)
		}
		for j, k := range checked {
			b.attempted.Add(1)
			if n := s.Count(keys[k]); n != oracles[j].Len() {
				b.fail("reopened store: key %s holds %d items, want %d", keys[k], n, oracles[j].Len())
			}
			for _, phi := range checkPhis {
				v, _ := s.Query(keys[k], phi)
				b.checkOracle("reopened store", oracles[j], phi, v, kwEps)
			}
		}
		_ = s.Close() // checked; its final checkpoint is moot
		os.RemoveAll(cfg.Dir)
	}
	b.set("recovery_s", "s", quantile(reopens, 0.5))
	return nil
}

// keyedWALLayers runs the layer probes on the workload's own batches,
// generated again from the seed, and on the node's snapshot payload before
// and after one more batch.
func (b *bench) keyedWALLayers(st *store.Store) {
	var batches []batch
	for _, r := range newBench(b.config, nil, io.Discard).genKeyedWAL().rot {
		if r.items > 0 {
			batches = append(batches, batch{key: r.key, vals: r.vals})
		}
	}
	b.probeSharded(batches, kwEps)
	b.setLayer("gk.stored_tuples", "count", float64(st.Stats().RetainedItems))
	b.probeStore(batches, kwEps, []*store.Store{st})
	base, _, err := st.SnapshotPayload()
	if err != nil {
		b.fail("snapshot: %v", err)
		return
	}
	st.UpdateBatch(batches[0].key, batches[0].vals)
	head, _, err := st.SnapshotPayload()
	if err != nil {
		b.fail("snapshot: %v", err)
		return
	}
	b.probeEncoding([][]byte{base}, [][]byte{head})
}

// checkedKeys is the fixed sample of keys whose answers are checked: the
// hottest ones and a seeded draw of the rest.
func (e *kwEnv) checkedKeys(seed int64) []int {
	r := rand.New(rand.NewPCG(uint64(seed), 0xc4ec))
	var out []int
	for k := 0; k < min(kwCheckTop, len(e.keys)); k++ {
		out = append(out, k)
	}
	for j := 0; j < kwCheckAny; j++ {
		out = append(out, kwCheckTop+r.IntN(len(e.keys)-kwCheckTop))
	}
	return out
}

// oracles returns the exact oracle of each key's stream after the first
// sent requests of the rotation.
func (e *kwEnv) oracles(keys []int, sent int64) []*rank.Oracle[float64] {
	items := map[int][]float64{}
	for _, k := range keys {
		items[k] = append([]float64(nil), e.pop[k]...)
	}
	n := int64(len(e.rot))
	for i := int64(0); i < min(sent, n); i++ {
		times := sent / n
		if i < sent%n {
			times++
		}
		k := e.rotK[i]
		if _, ok := items[k]; !ok || e.rot[i].items == 0 {
			continue
		}
		for t := int64(0); t < times; t++ {
			items[k] = append(items[k], e.rot[i].vals...)
		}
	}
	out := make([]*rank.Oracle[float64], len(keys))
	for i, k := range keys {
		out[i] = rank.Float64Oracle(items[k])
	}
	return out
}

// checkKeyReply checks every answer of a per-key /quantile reply.
func (b *bench) checkKeyReply(what string, body []byte, o *rank.Oracle[float64], eps float64) {
	var q quantileReply
	if err := json.Unmarshal(body, &q); err != nil || q.N != o.Len() {
		b.fail("%s: reply %q: want n=%d (%v)", what, body, o.Len(), err)
		return
	}
	for _, r := range q.Results {
		b.checkOracle(what, o, r.Phi, r.Value, eps)
	}
}

// jsonArray renders values as a JSON array of numbers.
func jsonArray(vals []float64) []byte {
	out := []byte{'['}
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
	}
	return append(out, ']')
}

// floatBytes renders values for the input digest.
func floatBytes(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
		out = append(out, ' ')
	}
	return out
}
