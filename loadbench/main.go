// Command loadbench is the Crucial benchmark: it boots the system in
// process, drives one named workload from a single generator, audits the
// program's outputs, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	go run . --workload kv_read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a separate traced run and writes the
// spans under .bench_build/traces. Every workload uses the in-memory
// transport with zero injected delay, so latencies are processor time,
// not a modelled network. See NOTES.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

//go:embed rates.json
var ratesJSON []byte

// rates is the calibrated load plan (rates.json).
type rates struct {
	LowShare       float64 `json:"low_share"`
	HighShare      float64 `json:"high_share"`
	LadderFactor   float64 `json:"ladder_factor"`
	MaxLadderSteps int     `json:"max_ladder_steps"`
	MinSamples     int     `json:"min_samples"`
	InflightCap    int     `json:"inflight_cap"`
	LateBoundShare float64 `json:"late_bound_share"`
	// HostRefNominalMs is the host reference time (hostspeed.go) that
	// the scaled times are brought to.
	HostRefNominalMs float64                 `json:"host_ref_nominal_ms"`
	Workloads        map[string]workloadRate `json:"workloads"`
}

// workloadRate is one workload's calibration.
type workloadRate struct {
	KneeOps         float64 `json:"knee_ops"`
	P99LimitMs      float64 `json:"p99_limit_ms"`
	RungSamples     int     `json:"rung_samples"`
	JobOpsPerThread int     `json:"job_ops_per_thread"`
	WarmupOps       int     `json:"warmup_ops"`
	// The stateful-function batches a traced bsp_threads run sends after
	// its own window: messages per sender in a batch, and batches.
	StatefunMsgsPerThread int    `json:"statefun_msgs_per_thread"`
	StatefunBatches       int    `json:"statefun_batches"`
	Reason                string `json:"reason"`
}

func loadRates() (rates, error) {
	var r rates
	if err := json.Unmarshal(ratesJSON, &r); err != nil {
		return r, fmt.Errorf("rates.json: %w", err)
	}
	return r, nil
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measured seconds of one run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rt, err := loadRates()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 2
	}
	wr, ok := rt.Workloads[*workload]
	if !ok || workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "loadbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "loadbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	// One generator process using every CPU: the load shape the
	// calibration assumes.
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  float64(*seconds),
		Trace:    *trace == 1,
		Rates:    rt,
		Rate:     wr,
		TraceDir: ".bench_build/traces",
	}
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	enc, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	report, err := json.MarshalIndent(out.report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	fmt.Println(string(report))
	fmt.Println(string(enc))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
