package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/faas"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// A timing run boots its workload at least minSetups times and until
// setupBudget has passed, at most maxSetups times; every boot but the
// last is closed again, and setup_s is the median. A boot of tens of
// milliseconds is thus timed often enough for its median to hold still.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// moreSetups reports whether a timing run boots again after n boots that
// took elapsed in all.
func moreSetups(n int, elapsed time.Duration) bool {
	return n < maxSetups && (n < minSetups || elapsed < setupBudget)
}

// A run measures in rounds: each round offers low and high once and runs
// the job after each of them. Step values are the medians over the
// rounds, job values the median over the jobs (percentiles over all their
// iterations); many short repeats spread over the whole run keep a slow
// spell of the host from moving the medians.
const rounds = 8

// Step durations as shares of --seconds: low and high over all rounds
// together, a ladder rung on its own. Each also offers at least its
// minimum sample count.
const (
	lowSpan    = 0.35
	highSpan   = 0.25
	ladderSpan = 0.03
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Rates    rates
	Rate     workloadRate
	// TraceDir receives the span file of a traced run.
	TraceDir string
}

// env is what a workload shares with the runner: the request book, the
// span recorder (nil when untraced) and the program's telemetry bundle
// (nil when untraced).
type env struct {
	book *book
	tr   *tracer
	tel  *telemetry.Telemetry
}

// system is one booted workload.
type system interface {
	// step offers n requests at rate ops/s, open loop.
	step(ctx context.Context, name string, rate float64, n int) stepResult
	// job runs the workload's fixed closed-loop job on two cloud threads.
	job(ctx context.Context) (jobResult, error)
	// audit checks the program's outputs once the load has stopped.
	audit(ctx context.Context) error
	// probe snapshots the program counters the workload reaches.
	probe() counters
	// layers returns the workload's own per-layer metrics: timings the
	// benchmark took around calls into the program, over the measured
	// window that began with before.
	layers(before, after counters) map[string]float64
	close()
}

// newSystem boots a workload: cluster, clients, warm-up.
type newSystem func(ctx context.Context, cfg runConfig, e env) (system, error)

var workloads = map[string]newSystem{
	"kv_read":     newKVRead,
	"kv_write":    newKVWrite,
	"bsp_threads": newBSP,
}

// sideLoader is a system that, in a traced run, drives one more layer
// once its own window is measured and audited; the metrics it returns
// join the per-layer ones. A failed audit of that layer fails the run.
type sideLoader interface {
	sideLoad(ctx context.Context) (map[string]float64, error)
}

// jobResult is one fixed closed-loop job.
type jobResult struct {
	Seconds   float64   `json:"seconds"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	IterP50Ms float64   `json:"iter_p50_ms"`
	IterP90Ms float64   `json:"iter_p90_ms"`
	IterP99Ms float64   `json:"iter_p99_ms"`
	BilledGBs float64   `json:"billed_gb_s"`
	iterMs    []float64 // ascending
}

// counters is a snapshot of the program's exported counters; each
// workload fills the ones it reaches, the runner the process-wide ones.
type counters struct {
	at      time.Time
	node    server.Stats
	cache   client.CacheStats
	codec   core.CodecStats
	faas    faas.Stats
	tel     telemetry.Snapshot
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
	ops     int // requests attempted so far (book ids handed out)
	writes  int // mutations sent so far
	reads   int // reads sent so far
	wal     putLog
	snap    putLog
	// handlerRuns counts stateful-function handler entries.
	handlerRuns int64
	// marks are lengths of a workload's own sample logs, so layers can
	// take the samples of the measured window.
	marks [2]int
}

// output is what a run prints.
type output struct {
	report map[string]any
	result result
}

// plannedStep is one step of the plan: its rate and request count.
type plannedStep struct {
	name string
	rate float64
	n    int
}

// stepSize is a step's request count: span of the run at rate, and at
// least minSamples, split over repeats.
func stepSize(cfg runConfig, rate, span float64, minSamples, repeats int) int {
	return max(ceilDiv(minSamples, repeats), int(math.Ceil(rate*span*cfg.Seconds/float64(repeats))))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// lateBoundMs is how late the generator may run at the 99th percentile
// before a step is invalid: a share of the workload's latency limit.
func (cfg runConfig) lateBoundMs() float64 {
	return cfg.Rates.LateBoundShare * cfg.Rate.P99LimitMs
}

// planSteps sizes the steps: low and high per round, each rung once.
func planSteps(cfg runConfig) (low, high plannedStep, ladder []plannedStep) {
	r := cfg.Rates
	p := planRates(cfg.Rate.KneeOps, r.LowShare, r.HighShare, r.LadderFactor, r.MaxLadderSteps)
	low = plannedStep{"low", p.Low, stepSize(cfg, p.Low, lowSpan, r.MinSamples, rounds)}
	high = plannedStep{"high", p.High, stepSize(cfg, p.High, highSpan, r.MinSamples, rounds)}
	for i, rate := range p.Ladder {
		ladder = append(ladder, plannedStep{fmt.Sprintf("ladder%02d", i+1), rate,
			stepSize(cfg, rate, ladderSpan, cfg.Rate.RungSamples, 1)})
	}
	return low, high, ladder
}

// bookCapacity is the number of request ids a run can hand out.
func bookCapacity(cfg runConfig) int {
	low, high, ladder := planSteps(cfg)
	n := rounds*(low.n+high.n+jobsPerRound*jobThreads*cfg.Rate.JobOpsPerThread) + cfg.Rate.WarmupOps
	for _, s := range ladder {
		n += s.n
	}
	return n
}

// boot builds an env and a system, timing it.
func boot(ctx context.Context, cfg runConfig, traced bool) (system, env, float64, error) {
	b := newBook(bookCapacity(cfg))
	e := env{book: b}
	if traced {
		e.tr = newTracer()
		e.tr.base = b.base
		e.tel = telemetry.New()
	}
	t0 := time.Now()
	sys, err := workloads[cfg.Workload](ctx, cfg, e)
	if err != nil {
		return nil, e, 0, fmt.Errorf("set up %s: %w", cfg.Workload, err)
	}
	return sys, e, time.Since(t0).Seconds(), nil
}

// execute performs one run.
func execute(cfg runConfig) (output, error) {
	ctx := context.Background()
	ticks0, steal0 := cpuTicks()
	var out output
	var setups []float64
	var sys system
	var e env
	var untracedHigh stepResult
	low, high, ladder := planSteps(cfg)
	if cfg.Trace {
		// The tracing overhead is measured against an untraced boot of
		// the same workload running the high step alone.
		s, _, secs, err := boot(ctx, cfg, false)
		if err != nil {
			return out, err
		}
		setups = append(setups, secs)
		untracedHigh = s.step(ctx, high.name, high.rate, high.n)
		s.close()
	}
	setupStart := time.Now()
	setupTicks0, setupSteal0 := cpuTicks()
	for i := 0; i == 0 || !cfg.Trace && moreSetups(i, time.Since(setupStart)); i++ {
		if sys != nil {
			sys.close()
		}
		var secs float64
		var err error
		sys, e, secs, err = boot(ctx, cfg, cfg.Trace)
		if err != nil {
			return out, err
		}
		setups = append(setups, secs)
	}
	setupTicks1, setupSteal1 := cpuTicks()
	setupOwn := 1 - ratio(float64(setupSteal1-setupSteal0), float64(setupTicks1-setupTicks0))
	defer sys.close()

	samp := startSampler()
	defer samp.stop()
	before := fullProbe(sys, e)
	var all []round
	var lows, highs []stepResult
	var jobs []jobResult
	for i := 0; i < rounds; i++ {
		r, err := runRound(ctx, sys, low, high)
		if err != nil {
			return out, err
		}
		samp.lap()
		all = append(all, r)
		lows, highs = append(lows, r.Low), append(highs, r.High)
		jobs = append(jobs, r.Jobs...)
	}
	lowRes, highRes := combine(lows), combine(highs)
	steps := []stepResult{lowRes, highRes}
	if lowRes.MeetsLimit && highRes.MeetsLimit {
		for _, s := range ladder {
			r := sys.step(ctx, s.name, s.rate, s.n)
			steps = append(steps, r)
			if !r.MeetsLimit {
				break
			}
		}
	}
	job := combineJobs(jobs)
	var refs []float64
	for _, r := range all {
		refs = append(refs, r.RefMs...)
	}
	scale := hostScale(cfg.Rates.HostRefNominalMs, refs)
	lowP50, jobSecs := hostAdjusted(all, scale)
	after := fullProbe(sys, e)
	ticks1, steal1 := cpuTicks()
	heapPeak, goroutinesPeak := samp.stop()
	if err := sys.audit(ctx); err != nil {
		return out, fmt.Errorf("audit failed: %w", err)
	}

	attempted := lowRes.Attempted + highRes.Attempted + job.Attempted
	failed := misses(lowRes) + misses(highRes) + job.Failed
	okRatio := float64(attempted-failed) / float64(attempted)

	out.report = map[string]any{
		"workload":          cfg.Workload,
		"provenance":        provenance(cfg),
		"transport":         "in-memory, zero injected delay (netsim.Zero): latencies are processor time on this host, not a modelled network",
		"setup_s":           setups,
		"setup_steal_share": 1 - setupOwn,
		"steps":             steps,
		"rounds":            all,
		"job":               job,
		"audit":             "passed",
		"host_steal_share":  ratio(float64(steal1-steal0), float64(ticks1-ticks0)),
		"host_ref_ms":       median(refs),
		"host_scale":        scale,
		// Printed for reading, not bounded: these spread too far from run
		// to run on a shared 2-vCPU host to judge a change by (NOTES.md).
		"unbounded": map[string]metric{
			// The bounded timings before the host corrections
			// (hostspeed.go).
			"setup_s.raw":    {median(setups), "s"},
			"p50_ms.low.raw": {lowRes.P50Ms, "ms"},
			"job_s.raw":      {job.Seconds, "s"},
			"p50_ms.high":    {highRes.P50Ms, "ms"},
			"p99_ms.low":     {lowRes.P99Ms, "ms"},
			"p99_ms.high":    {highRes.P99Ms, "ms"},
			"p90_ms.low":     {lowRes.P90Ms, "ms"},
			"p90_ms.high":    {highRes.P90Ms, "ms"},
			"max_rate_ops":   {maxRate(steps), "1/s"},
			"iter_p50_ms":    {job.IterP50Ms, "ms"},
			"iter_p90_ms":    {job.IterP90Ms, "ms"},
			"iter_p99_ms":    {job.IterP99Ms, "ms"},
			"fail_ratio":     {float64(failed) / float64(attempted), "ratio"},
			// Every workload bills only the job's own functions, so this
			// is job_s times their memory and adds nothing to bound.
			"billed_gbs": {job.BilledGBs, "GB-s"},
		},
	}
	m := map[string]metric{}
	if !cfg.Trace {
		m["setup_s"] = metric{median(setups) * setupOwn * scale, "s"}
		m["p50_ms.low"] = metric{lowP50, "ms"}
		m["ok_ratio"] = metric{okRatio, "ratio"}
		m["heap_peak_mb"] = metric{heapPeak / (1 << 20), "MB"}
		m["job_s"] = metric{jobSecs, "s"}
	} else {
		lm := genLayers(steps, float64(failed)/float64(attempted))
		for k, v := range processLayers(before, after, goroutinesPeak) {
			lm[k] = v
		}
		for k, v := range programLayers(before, after) {
			lm[k] = v
		}
		for k, v := range sys.layers(before, after) {
			lm[k] = v
		}
		if sl, ok := sys.(sideLoader); ok {
			side, err := sl.sideLoad(ctx)
			if err != nil {
				return out, err
			}
			for k, v := range side {
				lm[k] = v
			}
		}
		for name, us := range e.tr.selfTimes() {
			lm["self_us."+name] = us
		}
		lm["trace.overhead_ms.p50_high"] = highRes.P50Ms - untracedHigh.P50Ms
		lm["trace.overhead_ms.p99_high"] = highRes.P99Ms - untracedHigh.P99Ms
		lm["trace.spans"] = float64(e.tr.count())
		path, err := e.tr.write(cfg.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err != nil {
			return out, fmt.Errorf("write trace: %w", err)
		}
		out.report["trace_file"] = path
		out.report["untraced_high"] = untracedHigh
		for _, pl := range perLayer {
			m[pl.name] = metric{lm[pl.name], pl.unit}
		}
		for name := range lm {
			if _, ok := m[name]; !ok {
				return out, fmt.Errorf("per-layer metric %q is not declared", name)
			}
		}
	}
	out.result = result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}
	return out, nil
}

// jobsPerRound is how many jobs a round runs: one after each step.
const jobsPerRound = 2

// round is one low and one high step, each followed by the job, with
// the share of the vCPUs' time the hypervisor gave to other guests while
// it ran (steal, /proc/stat).
type round struct {
	Low        stepResult  `json:"low"`
	High       stepResult  `json:"high"`
	Jobs       []jobResult `json:"jobs"`
	StealShare float64     `json:"host_steal_share"`
	// RefMs is the host reference time (hostspeed.go) before the first
	// step and after every step and job.
	RefMs []float64 `json:"host_ref_ms"`
}

func runRound(ctx context.Context, sys system, low, high plannedStep) (round, error) {
	var r round
	ticks0, steal0 := cpuTicks()
	for _, s := range []struct {
		plan plannedStep
		dst  *stepResult
	}{{low, &r.Low}, {high, &r.High}} {
		if len(r.RefMs) == 0 {
			r.RefMs = append(r.RefMs, hostRefMs())
		}
		*s.dst = sys.step(ctx, s.plan.name, s.plan.rate, s.plan.n)
		r.RefMs = append(r.RefMs, hostRefMs())
		job, err := sys.job(ctx)
		if err != nil {
			return r, fmt.Errorf("job: %w", err)
		}
		r.Jobs = append(r.Jobs, job)
		r.RefMs = append(r.RefMs, hostRefMs())
	}
	ticks1, steal1 := cpuTicks()
	r.StealShare = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	return r, nil
}

// combine merges the repeats of one step: counts add up, timings are the
// median over the repeats, goodput is pooled (good completions over the
// summed windows: at saturation single windows swing widely), and the
// step meets the limit when most repeats do.
func combine(reps []stepResult) stepResult {
	c := stepResult{Name: reps[0].Name, Rate: reps[0].Rate, Valid: true, Flat: true}
	med := func(f func(stepResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	met := 0
	good := 0.0
	for _, r := range reps {
		good += r.Goodput * r.Seconds
		c.Seconds += r.Seconds
		c.Attempted += r.Attempted
		c.Samples += r.Samples
		c.Failed += r.Failed
		c.Refused += r.Refused
		c.Unfinished += r.Unfinished
		c.Backlog = max(c.Backlog, r.Backlog)
		c.InflightPeak = max(c.InflightPeak, r.InflightPeak)
		c.Valid = c.Valid && r.Valid
		c.Flat = c.Flat && r.Flat
		if r.MeetsLimit {
			met++
		}
	}
	c.P50Ms = med(func(r stepResult) float64 { return r.P50Ms })
	c.P90Ms = med(func(r stepResult) float64 { return r.P90Ms })
	c.P99Ms = med(func(r stepResult) float64 { return r.P99Ms })
	c.TailPct = med(func(r stepResult) float64 { return r.TailPct })
	c.LimitP99Ms = med(func(r stepResult) float64 { return r.LimitP99Ms })
	c.Goodput = ratio(good, c.Seconds)
	c.LateP99Ms = med(func(r stepResult) float64 { return r.LateP99Ms })
	c.MeetsLimit = 2*met > len(reps)
	return c
}

// combineJobs merges job repeats: counts add up, wall time and cost are
// the median over the repeats, and the iteration percentiles are taken
// over the iterations of every repeat.
func combineJobs(reps []jobResult) jobResult {
	var c jobResult
	var all, secs, gbs []float64
	for _, r := range reps {
		c.Attempted += r.Attempted
		c.Failed += r.Failed
		secs = append(secs, r.Seconds)
		gbs = append(gbs, r.BilledGBs)
		all = append(all, r.iterMs...)
	}
	c.Seconds, c.BilledGBs = median(secs), median(gbs)
	all = sorted(all)
	c.IterP50Ms, c.IterP90Ms, c.IterP99Ms = quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99)
	return c
}

// misses counts a step's requests that failed, were refused by the
// in-flight cap, or never completed.
func misses(s stepResult) int { return s.Failed + s.Refused + s.Unfinished }

// fullProbe adds the process-wide counters to the workload's probe.
func fullProbe(sys system, e env) counters {
	c := sys.probe()
	c.at = time.Now()
	c.codec = core.ReadCodecStats()
	c.tel = e.tel.Snapshot()
	c.ops = int(e.book.next.Load())
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	c.gcPause = time.Duration(ms.PauseTotalNs)
	return c
}

// sampler tracks the peak live Go heap (what the last GC found reachable,
// which, unlike the heap including garbage, does not swing with GC
// pacing) per lap, and the peak goroutine count, while the load runs.
type sampler struct {
	stopCh     chan struct{}
	once       sync.Once
	wg         sync.WaitGroup
	mu         sync.Mutex
	live       float64   // last heap reading
	heap       float64   // peak of the current lap
	laps       []float64 // peaks of the finished laps
	goroutines float64
}

func startSampler() *sampler {
	s := &sampler{stopCh: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	read := func() {
		metrics.Read(samples)
		s.mu.Lock()
		s.live = float64(samples[0].Value.Uint64())
		s.heap = max(s.heap, s.live)
		s.goroutines = max(s.goroutines, float64(samples[1].Value.Uint64()))
		s.mu.Unlock()
	}
	read()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// lap ends a lap: its heap peak is kept, and the next lap starts from
// the heap as last read.
func (s *sampler) lap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laps = append(s.laps, s.heap)
	s.heap = s.live
}

// stop ends sampling and returns the median of the laps' heap peaks (the
// peak so far when no lap ended) in bytes, and the goroutine peak. It
// may be called more than once.
func (s *sampler) stop() (float64, float64) {
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.laps) == 0 {
		return s.heap, s.goroutines
	}
	return median(s.laps), s.goroutines
}

// jobThreads is how many cloud threads run a job: the load shape's two.
const jobThreads = 2

// runJob runs a fixed closed-loop job: one invocation of fn per thread,
// each carrying perThread consecutive request ids. The functions record
// each request's start as its due time and finish it in the book; wait,
// when set, blocks until completions that arrive by stamp are in.
func runJob(ctx context.Context, e env, plat *faas.Platform, fn string, perThread, threads int,
	payload func(thread int, first int64, n int, parent uint64) ([]byte, error),
	wait func(first int64, n int)) (jobResult, error) {
	n := perThread * threads
	first := e.book.reserve(n)
	billed := plat.Stats().BilledGBSecond
	rootID, rootStart := e.tr.begin()
	t0 := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		spanID, start := e.tr.begin()
		p, err := payload(t, first+int64(t*perThread), perThread, spanID)
		if err != nil {
			wg.Wait()
			return jobResult{}, fmt.Errorf("job payload: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed function leaves its remaining requests unfinished;
			// the result counts them as failed.
			_, _ = plat.Invoke(ctx, fn, p)
			e.tr.end(spanID, rootID, first, "faas.invoke", start)
		}()
	}
	wg.Wait()
	if wait != nil {
		wait(first, n)
	}
	secs := time.Since(t0).Seconds()
	e.tr.end(rootID, 0, first, "job", rootStart)
	return e.book.job(first, n, secs, plat.Stats().BilledGBSecond-billed), nil
}

// job summarizes a job's n requests from first, which took secs and
// billed gbs: each one that completed contributes its time from due to
// completion, the others count as failed.
func (b *book) job(first int64, n int, secs, gbs float64) jobResult {
	r := jobResult{Seconds: secs, Attempted: n, BilledGBs: gbs}
	for id := first; id < first+int64(n); id++ {
		if b.status[id].Load() != stOK {
			r.Failed++
			continue
		}
		r.iterMs = append(r.iterMs, nsToMs(b.done[id].Load()-b.due[id]))
	}
	r.iterMs = sorted(r.iterMs)
	r.IterP50Ms = quantile(r.iterMs, 0.5)
	r.IterP90Ms = quantile(r.iterMs, 0.9)
	r.IterP99Ms = quantile(r.iterMs, 0.99)
	return r
}
