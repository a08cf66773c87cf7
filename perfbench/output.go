package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// fileMetric is one metric in a result file.
type fileMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

// resultFile is the self-describing record of one run.
type resultFile struct {
	Schema    int                   `json:"schema"`
	Host      hostInfo              `json:"host"`
	Workload  string                `json:"workload"`
	Why       string                `json:"why"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Setups    int                   `json:"setups"`
	Samples   int                   `json:"samples"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]fileMetric `json:"metrics"`
	Report    map[string]fileMetric `json:"report"`
	Notes     map[string]string     `json:"notes"`
	// Spread is the within-run [q1, median, q3] of a metric: setup_s over
	// the repeated set-ups, latency_p50_ms over five time slices.
	Spread map[string][3]float64 `json:"spread"`
	When   string                `json:"when"`
}

func toFileMetrics(m map[string]float64) map[string]fileMetric {
	out := make(map[string]fileMetric, len(m))
	for name, v := range m {
		d, _ := defOf(name)
		out[name] = fileMetric{Value: v, Unit: unitOf(name), Better: d.Better}
	}
	return out
}

func resultName(cfg config) string {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
}

// writeResult writes the run's result file and, for a traced run, its
// spans (one JSON object per line).
func writeResult(cfg config, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	rf := resultFile{
		Schema: schemaVersion, Host: readHost(),
		Workload: res.workload.name, Why: res.workload.why,
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Setups: cfg.setups,
		Samples: res.samples, Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: toFileMetrics(res.metrics), Report: toFileMetrics(res.extra),
		Notes: res.notes, Spread: res.spread, When: time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, resultName(cfg))
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(res.spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pyQuartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads read the same as in other tooling.
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	if len(s) < 2 {
		if len(s) == 1 {
			out = [3]float64{s[0], s[0], s[0]}
		}
		return out
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// summarizeResults prints, per workload and trace mode, every metric's
// median over the result files in dir and its spread: the distance
// between the first and third quartile as a share of the median.
func summarizeResults(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
	}
	groups := map[key]map[string][]float64{}
	seeds := map[key][]int64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		k := key{rf.Workload, rf.Trace}
		if groups[k] == nil {
			groups[k] = map[string][]float64{}
		}
		for name, m := range rf.Metrics {
			groups[k][name] = append(groups[k][name], m.Value)
		}
		for name, m := range rf.Report {
			groups[k]["("+name+")"] = append(groups[k]["("+name+")"], m.Value)
		}
		seeds[k] = append(seeds[k], rf.Seed)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, k := range keys {
		fmt.Fprintf(w, "%s trace=%v runs=%d seeds=%v\n", k.workload, k.trace, len(seeds[k]), seeds[k])
		names := make([]string, 0, len(groups[k]))
		for n := range groups[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := groups[k][n]
			q := pyQuartiles(xs)
			med := median(xs)
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			fmt.Fprintf(w, "  %-30s median %14.4f  q1 %14.4f  q3 %14.4f  spread %7.4f\n",
				strings.TrimSpace(n), med, q[0], q[2], spread)
		}
	}
	return nil
}
