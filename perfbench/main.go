// Command perfbench is the repository's end-to-end offload benchmark. It
// runs one seeded workload over real loopback TCP against in-process edge
// servers built with their default configuration (core.NewEdgeServer),
// checks every inference result against a reference computed locally at
// the same precision, and prints one JSON object as the last line of
// standard output.
//
//	bash perfbench/run.sh --workload tiny-churn --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured on the
// production client path (client.Offloader). With --trace 1 the run replays
// the same seeded requests twice, once untraced and once driven through the
// modules' public calls with benchmark-owned spans around each call, and
// reports the per-layer metrics; the program itself is not instrumented.
// Each run also writes a self-describing result file (schema version, host
// block, seed, sample counts, within-run spread) and, when traced, the raw
// spans, under --out. --summarize prints the run-to-run spread of every
// result file found there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// schemaVersion versions the result-file layout.
const schemaVersion = 1

// A run builds its workload from scratch at least setupRepeats times, and
// keeps rebuilding cheap workloads until setupTime has passed (at most
// maxSetups times); setup_s is the median, and the last build is the one
// measured.
const (
	setupRepeats = 3
	setupTime    = 2 * time.Second
	maxSetups    = 15
)

// watchdog bounds one invocation's wall time.
const watchdog = 170 * time.Second

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	// setupTime keeps cheap set-ups repeating until it has passed.
	setupTime time.Duration
	outDir    string
	log       io.Writer
}

func main() {
	var (
		cfg       config
		traceFlag int
		summarize bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced replay")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench", "results"), "directory for result and span files")
	flag.BoolVar(&summarize, "summarize", false, "print the run-to-run spread of the result files in -out and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.setups, cfg.setupTime = setupRepeats, setupTime
	cfg.log = os.Stderr
	if summarize {
		if err := summarizeResults(os.Stdout, cfg.outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	// The benchmark must end on its own; a hung request must not hang it.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(1)
	})
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, cfg, res)
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is everything one run measured.
type result struct {
	workload  *workload
	correct   bool
	attempted int
	failed    int
	// metrics holds the emitted metric set (end-to-end or per-layer).
	metrics map[string]float64
	// extra holds report-only figures: workload-specific metrics that not
	// every workload has, failure breakdowns, generator health.
	extra map[string]float64
	// notes records labels and validity verdicts.
	notes map[string]string
	// samples is the number of latency samples behind the percentiles.
	samples int
	// spread holds within-run quartiles per metric (setup_s over the
	// repeated set-ups, latency over time slices of the window).
	spread map[string][3]float64
	spans  []spanRec
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the final stdout object.
func (r *result) line() resultLine {
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.metrics))}
	for name, v := range r.metrics {
		out.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return out
}

// run sets the workload up cfg.setups times, measures the last set-up, and
// assembles the metric set the trace flag selects.
func run(cfg config) (*result, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if cfg.setups < 1 || cfg.trace {
		// setup_s is an end-to-end metric; a traced run sets up once.
		cfg.setups, cfg.setupTime = 1, 0
	}
	res := &result{workload: wl, correct: true, metrics: map[string]float64{},
		extra: map[string]float64{}, notes: map[string]string{}, spread: map[string][3]float64{}}
	var (
		w      world
		setups []float64
	)
	first := time.Now()
	for i := 0; i < cfg.setups || (i < maxSetups && time.Since(first) < cfg.setupTime); i++ {
		if w != nil {
			w.close()
			releaseMemory()
		}
		start := time.Now()
		var err error
		w, err = wl.setup(cfg.seed)
		if err != nil {
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	fmt.Fprintf(cfg.log, "perfbench: %s seed %d set up in %v s\n", wl.name, cfg.seed, fmtFloats(setups))
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if err := runTraced(w, window, res); err != nil {
			return nil, err
		}
	} else {
		if err := runUntraced(w, window, res); err != nil {
			return nil, err
		}
		res.metrics["setup_s"] = median(setups)
		res.spread["setup_s"] = quartiles(setups)
	}
	for k, v := range w.notes() {
		res.notes[k] = v
	}
	return res, nil
}

// runUntraced measures the production path and fills the end-to-end set.
func runUntraced(w world, window time.Duration, res *result) error {
	ph, err := w.run(window, nil, true)
	if err != nil {
		return err
	}
	if ph.completed == 0 {
		return errors.New("no inference completed")
	}
	res.absorb(ph)
	for k, v := range ph.endToEnd() {
		res.metrics[k] = v
	}
	for k, v := range ph.extra() {
		res.extra[k] = v
	}
	res.samples = len(ph.lat)
	res.spread["latency_p50_ms"] = quartiles(ph.sliceMedians(5))
	if len(ph.ladder) > 0 {
		res.notes["rate_ladder"] = ph.ladderNote()
	}
	if reason := ph.invalid(); reason != "" {
		// The open-loop figures are report-only; the verdict marks them,
		// while correct stays about the outputs.
		res.notes["open_loop_invalid"] = reason
	}
	return nil
}

// runTraced splits the window between an untraced and a traced replay of
// the same seeded requests, then profiles the workload's plans quietly.
func runTraced(w world, window time.Duration, res *result) error {
	half := window * 2 / 5
	before := w.counters()
	plain, err := w.run(half, nil, false)
	if err != nil {
		return err
	}
	after := w.counters()
	res.absorb(plain)
	for k, v := range layerCounters(before, after, plain) {
		res.metrics[k] = v
	}
	tr := newTracer()
	traced, err := w.run(half, tr, false)
	if err != nil {
		return err
	}
	if plain.completed == 0 || traced.completed == 0 {
		return errors.New("no inference completed")
	}
	res.absorb(traced)
	res.samples = len(traced.lat)
	for k, v := range tr.medians() {
		res.metrics[k] = v
	}
	res.metrics["client.presend_mb_per_s"] = tr.presendRate()
	res.metrics["trace_overhead_frac"] = quantile(traced.lat, 0.5)/quantile(plain.lat, 0.5) - 1
	prof, err := w.profile()
	if err != nil {
		return err
	}
	for k, v := range prof {
		res.metrics[k] = v
	}
	res.spans = tr.snapshot()
	for _, m := range perLayer {
		if _, ok := res.metrics[m.Name]; !ok {
			// The layer does not occur on this workload (no LRN in
			// TinyNet, no handoff outside agenet-roam): nothing ran, so
			// nothing was spent.
			res.metrics[m.Name] = 0
		}
	}
	return nil
}

// absorb adds a phase's request accounting to the run totals.
func (r *result) absorb(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failures()
	if ph.wrong > 0 {
		r.correct = false
	}
}

// printReport writes the human-readable report: every metric by name and
// unit, including the report-only ones, ahead of the final JSON line.
func printReport(w io.Writer, cfg config, res *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced replay)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  %s  samples %d\n",
		res.workload.name, cfg.seed, cfg.seconds, mode, res.samples)
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, res.metrics[k], unitOf(k))
	}
	extras := make([]string, 0, len(res.extra))
	for k := range res.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(w, "  %-28s %14.4f %s (report only)\n", k, res.extra[k], unitOf(k))
	}
	notes := make([]string, 0, len(res.notes))
	for k := range res.notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "  %s: %s\n", k, res.notes[k])
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
