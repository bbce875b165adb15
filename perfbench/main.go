// Command perfbench is Nebula's seeded end-to-end benchmark. It runs one of
// three workloads against the public nebula.Engine API, checks that the
// engine's outputs are correct, and prints every metric by name and unit.
//
//	go run . --workload annotate --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics (timed with tracing off); with --trace 1 they are the
// per-layer metrics of a separate traced run, and the span file and the
// per-layer table are written under --out. See README.md for the metric
// definitions and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what one run was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for scratch state, spans and tables
}

// outcome is what a workload hands back to main: the end-to-end metrics
// (or, traced, the per-layer ones), the operation accounting, and the
// header fields describing its inputs.
type outcome struct {
	attempted int
	failed    int
	// mismatches lists every correctness-check failure; any entry fails the
	// run and counts in failed.
	mismatches []string
	metrics    map[string]metric
	header     map[string]any
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"annotate": runAnnotate,
	"curate":   runCurate,
	"recover":  runRecover,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: annotate, curate or recover")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer mode instead of the end-to-end mode")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch state, span files and per-layer tables")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload annotate|curate|recover, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %s\n", cfg.workload, m)
	}
	header := environment(cfg)
	for k, v := range out.header {
		header[k] = v
	}
	failed := out.failed + len(out.mismatches)
	attempted := out.attempted + len(out.mismatches)
	if attempted == 0 {
		attempted = 1
		failed = 1
	}
	header["error_rate"] = float64(failed) / float64(attempted)
	emit(map[string]any{"header": header})
	emit(result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out.metrics,
	})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// environment is the host and run header every result carries.
func environment(cfg config) map[string]any {
	mode := "end_to_end"
	if cfg.trace {
		mode = "traced"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"mode":       mode,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"wal_sync":   "group",
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
