// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload against the real /v1 HTTP tier, served in-process over
// loopback, checks every sampled answer against an exact oracle, and prints
// one JSON result line:
//
//	go run . -workload stream-ingest -seed 1 -seconds 25 -trace 0
//
// Workloads (README.md says why each was chosen and which layers it skips):
//
//	stream-ingest  the sharded single-stream tier under one connection
//	keyed-wal      the keyed store with its write-ahead log and checkpoints
//	agg-tree       sixteen keyed leaves pulled by one KeyedAggregator
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1 the
// workload runs twice, untraced and then traced: the result carries the
// per-layer metrics of the traced pass and the tracing overhead of each
// end-to-end metric, and the spans are written to a JSON-lines file under
// -dir when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"stream-ingest": runStream,
	"keyed-wal":     runKeyedWAL,
	"agg-tree":      runAggTree,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: stream-ingest, keyed-wal or agg-tree")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the stores and span files a run writes")
	flag.Parse()
	cfg.seconds = float64(*seconds)
	if _, ok := workloads[cfg.workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want -workload one of %v, -seconds ≥ 1 and -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation: the untraced workload, and with traced also
// the traced pass, whose per-layer metrics and overheads replace the
// end-to-end ones in the result. Progress lines go to log.
func run(cfg config, traced bool, log io.Writer) (result, error) {
	env, _ := json.Marshal(map[string]any{ // a map of plain values always encodes
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": traced, "tiny": cfg.tiny,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	})
	fmt.Fprintf(log, "# env %s\n", env)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating %s: %w", cfg.dir, err)
	}
	plain := newBench(cfg, nil, log)
	if err := plain.execute(); err != nil {
		return result{}, err
	}
	// Only the untraced pass's result outlives it, so that its checked
	// answers do not add to the traced pass's heap.
	untraced := plain.result(plain.metrics)
	if !traced {
		return untraced, nil
	}
	tr := newTracer()
	tb := newBench(cfg, tr, log)
	if err := tb.execute(); err != nil {
		return result{}, err
	}
	layers := tb.layerMetrics()
	for name, m := range untraced.Metrics {
		t, ok := tb.metrics[name]
		if !ok || m.Value == 0 {
			continue
		}
		layers["trace.overhead."+name] = metric{Value: 100 * (t.Value - m.Value) / m.Value, Unit: "%"}
	}
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.dir, cfg.workload, cfg.seed)
	if err := tr.writeFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# spans %d written to %s\n", tr.count(), path)
	res := tb.result(layers)
	res.Correct = res.Correct && untraced.Correct
	res.Attempted += untraced.Attempted
	res.Failed += untraced.Failed
	return res, nil
}

// execute runs the workload once and reports its failure share.
func (b *bench) execute() error {
	start := time.Now()
	if err := workloads[b.workload](b); err != nil {
		return err
	}
	// The 99th percentile, not the maximum, of the checked answers' rank
	// error ÷ εN: with thousands of checks it has tens of answers beyond it,
	// while the maximum of one run's answers moves with the random shard
	// routing. Every answer is still held to εN + 1 by checkAnswer.
	b.set("rank_error_ratio", "ratio", quantile(b.errors, 0.99))
	att, fail := b.attempted.Load(), b.failed.Load()
	share := 0.0
	if att > 0 {
		share = float64(fail) / float64(att)
	}
	fmt.Fprintf(b.log, "# pass traced=%v wall_s=%.1f attempted=%d failed=%d failure_share=%.6f checked=%d worst_rank_error_ratio=%.4f\n",
		b.tr != nil, time.Since(start).Seconds(), att, fail, share, len(b.errors), quantile(b.errors, 1))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
