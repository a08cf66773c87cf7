package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program: the
// same workloads with the same reasons, the same metrics with the same
// units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end mismatch:\n json    %v\n program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer mismatch:\n json    %v\n program %v", b.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits its whole metric set with units, that no request failed,
// and that every result matched its reference.
func TestSmoke(t *testing.T) {
	seconds := 2.0
	if !testing.Short() {
		seconds = 4
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: wl.name, seed: 7, seconds: seconds, trace: traced, setups: 1,
					outDir: t.TempDir(), log: io.Discard}
				start := time.Now()
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				t.Logf("trace=%v: %d requests in %v", traced, res.attempted, time.Since(start))
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%v",
						traced, res.correct, res.attempted, res.failed, res.notes)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				line := res.line()
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", traced, len(line.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", traced, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("trace=%v: %s unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: %s = %v", traced, d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !traced && res.extra["failed_frac"] != 0 {
					t.Errorf("failed_frac = %v", res.extra["failed_frac"])
				}
				if err := writeResult(cfg, res); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestScheduleDeterministic pins that a seed fixes the open-loop inputs.
func TestScheduleDeterministic(t *testing.T) {
	a := tinySchedule(5, 0, tinyRate, 2*time.Second)
	b := tinySchedule(5, 0, tinyRate, 2*time.Second)
	c := tinySchedule(6, 0, tinyRate, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != int(2*tinyRate) {
		t.Errorf("%d arrivals, want %d", len(a), int(2*tinyRate))
	}
}

// TestPyQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(range(1, 11), n=4).
func TestPyQuartiles(t *testing.T) {
	got := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("pyQuartiles = %v, want %v", got, want)
	}
}
