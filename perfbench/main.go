// Command perfbench is the repository benchmark. It runs one workload of the
// LevelArray stack in a single process on loopback, checks the outputs, and
// prints the metrics that BENCHMARK.json declares as one JSON object on the
// last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 the
// same workload and seed run with the layer decorators switched on and the
// object holds the per-layer metrics. A failed correctness check exits 1 and
// prints no numbers. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// spans is the file the traced run writes its spans to; empty writes none.
	spans string
}

// maxProcs caps GOMAXPROCS: every workload is defined for two cores.
const maxProcs = 2

// specFile is the benchmark definition, read from the checkout root the
// benchmark runs in.
const specFile = "BENCHMARK.json"

// workload is one traffic mix: the function that builds, drives and checks
// its stack, and the client connections it uses.
type workload struct {
	run   func(options, *report) error
	conns int
}

var workloads = map[string]workload{
	"embedded-churn":     {runEmbedded, 0},
	"standalone-durable": {runStandalone, sdConns},
	"cluster-routed":     {runCluster, clNodes},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.StringVar(&opts.spans, "spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[opts.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", opts.workload, workloadNames())
		return 2
	case opts.seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d must be at least 1\n", opts.seconds)
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d must be 0 or 1\n", traceFlag)
		return 2
	}
	opts.trace = traceFlag == 1
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	rep := newReport()
	rep.logf("perfbench: workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d GOMAXPROCS=%d conns=%d",
		opts.workload, opts.seed, opts.seconds, traceFlag, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), wl.conns)
	if err := wl.run(opts, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s FAILED: %v\n", opts.workload, err)
		return 1
	}
	line, err := rep.result(sp, opts.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: the metric lists it
// must print, so the definition and the program cannot drift apart.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, fmt.Errorf("%s lists no end_to_end or per_layer metrics", path)
	}
	return s, nil
}

// report collects one run's measurements. Workloads fill e2e and layer by
// metric name; na names the per-layer metrics a workload does not run, with
// the reason, and those print as 0.
type report struct {
	attempted, failed uint64
	invalid           []string
	e2e               map[string]float64
	layer             map[string]float64
	na                map[string]string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, na: map[string]string{}}
}

// logf prints one human-readable line; the JSON result stays the last line.
func (r *report) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// invalidate marks the run invalid: its numbers are printed but not correct.
func (r *report) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	r.logf("INVALID: %s", msg)
}

// notApplicable records that a per-layer metric has no layer to measure on
// this workload.
func (r *report) notApplicable(reason string, names ...string) {
	for _, n := range names {
		r.na[n] = reason
	}
}

// result renders the final JSON line for the metric list the mode selects.
func (r *report) result(s spec, traced bool) (string, error) {
	list, vals := s.EndToEnd, r.e2e
	if traced {
		list, vals = s.PerLayer, r.layer
		for _, m := range list {
			if reason, ok := r.na[m.Name]; ok {
				r.logf("  n/a %-28s %s", m.Name, reason)
			}
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.invalid) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			if _, na := r.na[m.Name]; !na || !traced {
				missing = append(missing, m.Name)
				continue
			}
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics declared but not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted == 0 {
		return "", fmt.Errorf("no operations attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}
