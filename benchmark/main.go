// Command benchmark is the repository's benchmark: it trains four fixed
// workloads through the public facade (pipemare.New, Trainer.Run), checks
// every curve against the serial Reference engine, and reports five
// end-to-end metrics per workload plus per-layer metrics from layer
// probes and a traced pass. README.md documents workloads, metrics and
// conditions; ../BENCHMARK.json declares the names and regression bounds.
//
// From the repository root:
//
//	bash benchmark/run.sh                      # every workload, both passes
//	bash benchmark/run.sh -runs 10 -out a.json # a complete set of runs
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh --workload xfmr-pipe --seed 3 --seconds 12 --trace 0
//
// The last form is the driver's: one workload, one pass, and as the last
// line of standard output one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// results is the results file: the conditions the numbers were taken
// under and one record per run.
type results struct {
	// Claim is always null: the benchmark defines names, it claims no gain.
	Claim      *string      `json:"claim"`
	Conditions conditions   `json:"conditions"`
	Runs       []*runResult `json:"runs"`
	Spans      []phaseTotal `json:"spans"`
}

type conditions struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      string  `json:"trace"`
}

// line is the driver's result line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecksFailed makes the command exit non-zero after every row has
// been printed.
var errChecksFailed = fmt.Errorf("one or more checks failed")

func realMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", 1, "run seed: draws the batch order (WithSeed); run k of -runs uses seed+k")
		seconds      = fs.Float64("seconds", 12, "length of each timed pass")
		traceMode    = fs.String("trace", "both", "0: timed pass, end-to-end metrics; 1: probes and traced pass, per-layer metrics; both")
		quick        = fs.Bool("quick", false, "smoke mode: 1 warm + 2 timed epochs per workload, probes at 1 iteration")
		runs         = fs.Int("runs", 1, "runs per workload, each with the next seed")
		out          = fs.String("out", "", "write the results JSON here")
		spansOut     = fs.String("spans", "", "write the benchmark's own spans here as Chrome trace JSON")
		scratch      = fs.String("scratch", ".bench_build", "directory for checkpoint files")
		specPath     = fs.String("spec", "BENCHMARK.json", "the benchmark declaration, for -compare's bounds")
		compare      = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	cfg := runConfig{seconds: *seconds, quick: *quick}
	switch *traceMode {
	case "0":
		cfg.timed = true
	case "1":
		cfg.layers = true
	case "both":
		cfg.timed, cfg.layers = true, true
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", *traceMode)
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	var selected []workload
	for _, w := range workloads() {
		if *workloadName == "all" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	// A private directory under the scratch directory, so concurrent
	// invocations cannot prune each other's checkpoints.
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.scratch = dir

	spans := newSpanRecorder()
	res := results{Conditions: conditions{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seconds: *seconds, Quick: *quick, Trace: *traceMode,
	}}
	failed := false
	for i := range selected {
		for k := 0; k < *runs; k++ {
			cfg.seed = *seed + int64(k)
			rr, err := runWorkload(&selected[i], cfg, spans)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, rr)
			failed = failed || !rr.Correct
			if err := printRun(rr); err != nil {
				return err
			}
		}
	}
	res.Spans = spans.totals()

	if *out != "" {
		if err := writeResults(*out, res); err != nil {
			return err
		}
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		if err := spans.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if failed {
		return errChecksFailed
	}
	return nil
}

// printRun prints one run: a header, every metric by name with its unit,
// any failed checks, and last the driver's result line.
func printRun(rr *runResult) error {
	fmt.Printf("%s seed=%d samples/epoch=%d epochs: setup=%d timed=%d traced=%d verify=%d  ops_attempted=%d ops_failed=%d\n",
		rr.Workload, rr.Seed, rr.SamplesPerEpoch, rr.SetupEpochs, rr.TimedEpochs, rr.TracedEpochs, rr.VerifyEpochs,
		rr.OpsAttempted, rr.OpsFailed)
	for _, name := range rr.names {
		v := rr.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range rr.Failures {
		fmt.Printf("  FAILED: %s\n", strings.TrimSpace(f))
	}
	b, err := json.Marshal(line{Correct: rr.Correct, Attempted: rr.OpsAttempted, Failed: rr.OpsFailed, Metrics: rr.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// writeResults writes the results file compactly but diffably: one run
// per line, one span total per line.
func writeResults(path string, res results) error {
	var b bytes.Buffer
	line := func(prefix string, v any, suffix string) error {
		j, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s%s%s\n", prefix, j, suffix)
		return nil
	}
	comma := func(i, n int) string {
		if i < n-1 {
			return ","
		}
		return ""
	}
	if err := line("{\n\"claim\": ", res.Claim, ","); err != nil {
		return err
	}
	if err := line("\"conditions\": ", res.Conditions, ","); err != nil {
		return err
	}
	b.WriteString("\"runs\": [\n")
	for i, r := range res.Runs {
		if err := line("  ", r, comma(i, len(res.Runs))); err != nil {
			return err
		}
	}
	b.WriteString("],\n\"spans\": [\n")
	for i, s := range res.Spans {
		if err := line("  ", s, comma(i, len(res.Spans))); err != nil {
			return err
		}
	}
	b.WriteString("]\n}\n")
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
