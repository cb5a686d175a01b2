package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run emits exactly the declared metrics with their units
// and fails no operation.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, err := run(config{workload: w, seed: 7, seconds: 1, tiny: true, dir: t.TempDir()}, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", w, traced, name)
				}
			}
		}
	}
}

// TestInputsRepeat checks that a seed pins the generated inputs: two
// generations with one seed digest the same bytes, and another seed differs.
func TestInputsRepeat(t *testing.T) {
	digest := func(seed int64) string {
		b := newBench(config{workload: "keyed-wal", seed: seed, tiny: true}, nil, io.Discard)
		b.genKeyedWAL()
		return string(b.inputs.Sum(nil))
	}
	if digest(3) != digest(3) {
		t.Error("one seed generated different inputs")
	}
	if digest(3) == digest(4) {
		t.Error("two seeds generated the same inputs")
	}
}
