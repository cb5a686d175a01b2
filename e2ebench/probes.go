package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
	"quantilelb/internal/summary"
)

// Layer probes of the traced pass. Each replays a workload's own update
// batches, or its own snapshot payloads, through one module's public
// functions and times the benchmark's calls, each call a span. A probe
// measures its layer alone: the layers below it are in its time, the HTTP
// tier and the other workloads' layers are not.

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeSharded feeds the batches into a fresh 16-shard GK node and 16 GK
// summaries. A read every readEvery batches rebuilds the snapshot inline
// when it is stale; such reads are timed as refreshes, the others as plain
// reads.
func (b *bench) probeSharded(batches []batch, eps float64) {
	node := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(eps) }, streamShards, sharded.WithRefreshEvery(streamRefresh))
	var upd, refresh, query []float64
	for i, bt := range batches {
		upd = append(upd, us(b.tr.call("sharded.UpdateBatch", 0, func() { node.UpdateBatch(bt.vals) })))
		if i%readEvery == readEvery-1 {
			// The first read rebuilds a stale snapshot; the second reads
			// the fresh one.
			before := node.Stats().Refreshes
			d := b.tr.call("sharded.Query", 0, func() { node.Query(0.99) })
			if node.Stats().Refreshes != before {
				refresh = append(refresh, ms(d))
			}
			query = append(query, us(b.tr.call("sharded.Query", 0, func() { node.Query(0.99) })))
		}
	}
	b.setLayer("sharded.update_batch_p50_us", "us", quantile(upd, 0.5))
	b.setLayer("sharded.refresh_p50_ms", "ms", quantile(refresh, 0.5))
	b.setLayer("sharded.refresh_max_ms", "ms", quantile(refresh, 1))
	b.setLayer("sharded.query_p50_us", "us", quantile(query, 0.5))
	if _, ok := b.layer["sharded.refreshes_per_query"]; !ok {
		b.setLayer("sharded.refreshes_per_query", "ratio", safeDiv(float64(len(refresh)), float64(2*len(query))))
	}

	shards := make([]*gk.Summary[float64], streamShards)
	for i := range shards {
		shards[i] = gk.NewFloat64(eps)
	}
	var spent time.Duration
	items := 0
	for i, bt := range batches {
		spent += b.tr.call("gk.UpdateBatch", 0, func() { shards[i%len(shards)].UpdateBatch(bt.vals) })
		items += len(bt.vals)
	}
	b.setLayer("gk.update_batch_ns_per_item", "ns", float64(spent)/float64(items))
	var merges []float64
	for r := 0; r < 5; r++ {
		merged := gk.NewFloat64(eps)
		merges = append(merges, ms(b.tr.call("gk.Merge16", 0, func() {
			for _, s := range shards {
				if err := merged.Merge(s); err != nil {
					b.fail("gk merge: %v", err)
				}
			}
		})))
	}
	b.setLayer("gk.merge16_ms", "ms", quantile(merges, 0.5))
}

// probeStore feeds the same batches into a store opened with its WAL and
// into an in-memory one, checkpointing the first eight times from a second
// goroutine, then times the recovery split: restoring the checkpoint
// bytes, and replaying a WAL that holds every batch. nodes are the
// workload's own stores, whose key stages and retained bytes it reports;
// with none it reports the probe store's.
func (b *bench) probeStore(batches []batch, eps float64, nodes []*store.Store) {
	dir, err := os.MkdirTemp(b.dir, "probe-store-")
	if err != nil {
		b.fail("probe store dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := store.Config{Eps: eps, Dir: filepath.Join(dir, "wal")}
	wal, err := store.Open(cfg)
	if err != nil {
		b.fail("probe store open: %v", err)
		return
	}
	mem := store.New(store.Config{Eps: eps})

	var (
		walUS, memUS, queryUS []float64
		ckptMS                []float64
		ckptBusy              atomic.Bool
		stallMax              time.Duration
		wg                    sync.WaitGroup
		sinceCkpt             atomic.Int64 // items appended since the last checkpoint began
	)
	ckptEvery := max(1, len(batches)/8)
	for i, bt := range batches {
		overlap := ckptBusy.Load()
		d := b.tr.call("store.UpdateBatch", 0, func() { wal.UpdateBatch(bt.key, bt.vals) })
		if overlap || ckptBusy.Load() {
			stallMax = max(stallMax, d)
		}
		sinceCkpt.Add(int64(len(bt.vals)))
		walUS = append(walUS, us(d))
		memUS = append(memUS, us(b.tr.call("store.UpdateBatch.mem", 0, func() { mem.UpdateBatch(bt.key, bt.vals) })))
		if i%readEvery == readEvery-1 {
			queryUS = append(queryUS, us(b.tr.call("store.Query", 0, func() { wal.Query(bt.key, 0.99) })))
		}
		if i%ckptEvery == ckptEvery-1 && !ckptBusy.Load() {
			ckptBusy.Store(true)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer ckptBusy.Store(false)
				sinceCkpt.Store(0)
				d := b.tr.call("store.Checkpoint", 0, func() {
					if err := wal.Checkpoint(); err != nil {
						b.fail("probe checkpoint: %v", err)
					}
				})
				ckptMS = append(ckptMS, ms(d)) // read only after wg.Wait
			}()
		}
	}
	wg.Wait()
	b.setLayer("store.update_batch_wal_p50_us", "us", quantile(walUS, 0.5))
	b.setLayer("store.update_batch_mem_p50_us", "us", quantile(memUS, 0.5))
	b.setLayer("store.query_p50_us", "us", quantile(queryUS, 0.5))
	b.setLayer("store.checkpoint_ms", "ms", quantile(ckptMS, 0.5))
	b.setLayer("store.checkpoint_stall_max_ms", "ms", ms(stallMax))

	// WAL bytes per item over the records appended since the last
	// checkpoint; top the log up with the batches again if it is thin.
	for _, bt := range batches[:min(len(batches), 256)] {
		wal.UpdateBatch(bt.key, bt.vals)
		sinceCkpt.Add(int64(len(bt.vals)))
	}
	if fi, err := os.Stat(filepath.Join(cfg.Dir, "store.wal")); err == nil {
		b.setLayer("store.wal_bytes_per_item", "B", safeDiv(float64(fi.Size()), float64(sinceCkpt.Load())))
	}

	var payload []byte
	var snaps, loads []float64
	for r := 0; r < 3; r++ {
		snaps = append(snaps, ms(b.tr.call("store.SnapshotPayload", 0, func() { payload, _, err = mem.SnapshotPayload() })))
		if err != nil {
			b.fail("probe snapshot: %v", err)
			return
		}
		loads = append(loads, b.tr.call("store.Restore", 0, func() {
			if _, err := store.Restore(store.Config{Eps: eps}, payload); err != nil {
				b.fail("probe restore: %v", err)
			}
		}).Seconds())
	}
	b.setLayer("store.snapshot_payload_ms", "ms", quantile(snaps, 0.5))
	b.setLayer("store.checkpoint_load_s", "s", quantile(loads, 0.5))

	// WAL replay: a store whose log holds every batch and no checkpoint,
	// abandoned, then reopened.
	replayCfg := store.Config{Eps: eps, Dir: filepath.Join(dir, "replay")}
	w, err := store.Open(replayCfg)
	if err != nil {
		b.fail("probe replay open: %v", err)
		return
	}
	for _, bt := range batches {
		w.UpdateBatch(bt.key, bt.vals)
	}
	copies := make([]store.Config, 3)
	for r := range copies {
		copies[r] = replayCfg
		copies[r].Dir = filepath.Join(dir, fmt.Sprintf("replay-%d", r))
		if err := copyDir(replayCfg.Dir, copies[r].Dir); err != nil {
			b.fail("probe replay copy: %v", err)
			return
		}
	}
	_ = w.Close()
	var replays []float64
	for _, copyCfg := range copies {
		var reopened *store.Store
		replays = append(replays, b.tr.call("store.Open", 0, func() {
			if reopened, err = store.Open(copyCfg); err != nil {
				b.fail("probe replay: %v", err)
			}
		}).Seconds())
		if reopened != nil {
			_ = reopened.Close()
		}
	}
	b.setLayer("store.wal_replay_s", "s", quantile(replays, 0.5))

	if len(nodes) == 0 {
		nodes = []*store.Store{wal}
	}
	var keys, promoted, buffered, retained int
	for _, st := range nodes {
		s := st.Stats()
		keys += s.Keys
		promoted += s.PromotedKeys
		buffered += s.BufferedKeys
		retained += int(s.RetainedBytes)
	}
	b.setLayer("store.promoted_keys", "count", float64(promoted))
	b.setLayer("store.buffered_keys", "count", float64(buffered))
	b.setLayer("store.retained_bytes_per_key", "B", safeDiv(float64(retained), float64(keys)))
	_ = wal.Close()
}

// probeEncoding replays what an aggregator does with one round of peer
// payloads: decode every payload (the nested records of a keyed container
// too), merge the decoded summaries per key in peer order, and apply each
// peer's delta from base to head.
func (b *bench) probeEncoding(base, head [][]byte) {
	var bytes int
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	type rec struct {
		key string
		sum any
	}
	var recs []rec
	dec := b.tr.call("encoding.Decode", 0, func() {
		for _, p := range head {
			bytes += len(p)
			if k, err := encoding.DetectKind(p); err == nil && k == encoding.KindStore {
				entries, err := encoding.DecodeStore(p)
				if err != nil {
					b.fail("decode store: %v", err)
					return
				}
				for _, e := range entries {
					s, err := encoding.Decode(e.Payload)
					if err != nil {
						b.fail("decode record: %v", err)
						return
					}
					recs = append(recs, rec{e.Key, s})
				}
				continue
			}
			s, err := encoding.Decode(p)
			if err != nil {
				b.fail("decode: %v", err)
				return
			}
			recs = append(recs, rec{"", s})
		}
	})
	runtime.ReadMemStats(&mem1)
	b.setLayer("encoding.decode_ms_per_round", "ms", ms(dec))
	b.setLayer("encoding.decode_mb_per_s", "MB/s", float64(bytes)/(1<<20)/dec.Seconds())
	b.setLayer("encoding.decode_allocs_per_payload", "count", float64(mem1.Mallocs-mem0.Mallocs)/float64(len(head)))

	merged := map[string]summary.Summary[float64]{}
	mer := b.tr.call("encoding.MergeAdopting", 0, func() {
		for _, r := range recs {
			cur, ok := merged[r.key]
			if !ok {
				merged[r.key] = r.sum.(summary.Summary[float64])
				continue
			}
			res, err := encoding.MergeAdopting(cur, r.sum)
			if err != nil {
				b.fail("merge: %v", err)
				return
			}
			merged[r.key] = res.(summary.Summary[float64])
		}
	})
	b.setLayer("encoding.merge_ms_per_round", "ms", ms(mer))

	var enc, app time.Duration
	var deltaBytes, headBytes int
	for i := range head {
		var delta []byte
		var err error
		enc += b.tr.call("encoding.EncodeDelta", 0, func() { delta, err = encoding.EncodeDelta(base[i], head[i]) })
		if err != nil {
			b.fail("encode delta: %v", err)
			return
		}
		app += b.tr.call("encoding.ApplyDelta", 0, func() { _, err = encoding.ApplyDelta(base[i], delta) })
		if err != nil {
			b.fail("apply delta: %v", err)
			return
		}
		deltaBytes += len(delta)
		headBytes += len(head[i])
	}
	b.setLayer("encoding.encode_delta_ms", "ms", ms(enc))
	b.setLayer("encoding.apply_delta_ms", "ms", ms(app))
	b.setLayer("encoding.delta_bytes_ratio", "ratio", safeDiv(float64(deltaBytes), float64(headBytes)))
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
