package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crucial"
	"crucial/internal/core"
	"crucial/internal/objects"
)

// BSP shape: the paper's k-means/logreg superstep.
const (
	bspThreads = jobThreads
	bspLength  = 1000 // doubles in the shared array (8 KB)
	// bspLead is how far ahead of its first due time a step spawns its
	// threads, so spawning is not charged to the first iterations.
	bspLead = 50 * time.Millisecond
	// bspAwaitTimeout bounds a barrier wait: a thread whose partner
	// failed before the barrier, and so never arrives, gives up then.
	bspAwaitTimeout = 5 * time.Second
)

// bspRuns maps a run id to its system, so cloud threads (which arrive as
// decoded Runnables) can report their timings back.
var bspRuns sync.Map

var bspRunSeq atomic.Int64

// bspSystem runs supersteps of AtomicDoubleArray.GetAll → AddAll →
// CyclicBarrier.Await on two cloud threads over ephemeral objects.
type bspSystem struct {
	cfg runConfig
	e   env
	rt  *crucial.Runtime
	id  int64
	arr *crucial.AtomicDoubleArray // bound to the master thread, for the audit

	barrierSeq int
	arrivals   []atomic.Int32
	addsAcked  atomic.Int64
	addsFailed atomic.Int64
	violation  atomic.Pointer[string]
	mu         sync.Mutex
	late       []float64 // ms the threads woke after a due time
	// Per-layer timings, recorded in traced runs only.
	getAllUs    []float64
	addAllUs    []float64
	awaitUs     []float64
	iterUs      []float64
	threadStart []float64 // ms from Start to Run entry
}

// bspTask is one cloud thread: N supersteps on request ids First..,
// paced to due times when Paced, else back to back.
type bspTask struct {
	Arr    *crucial.AtomicDoubleArray
	Bar    *crucial.CyclicBarrier
	RunID  int64
	Thread int
	First  int64
	N      int
	// Adds acknowledged and adds failed (applied or not) before this
	// task's first superstep: every slot lies between the first and
	// their sum.
	BaseAcked  int64
	BaseFailed int64
	Paced      bool
	StartNs    int64 // Start call, ns since the book's base
	Parent     uint64
}

func newBSP(ctx context.Context, cfg runConfig, e env) (system, error) {
	crucial.Register(&bspTask{})
	rt, err := crucial.NewLocalRuntime(crucial.Options{DSONodes: 3, RF: 2, Telemetry: e.tel})
	if err != nil {
		return nil, err
	}
	w := &bspSystem{cfg: cfg, e: e, rt: rt, id: bspRunSeq.Add(1)}
	w.arrivals = make([]atomic.Int32, len(e.book.status))
	// Sized up front, so the benchmark's own samples do not grow the heap
	// whose peak the run reports.
	w.late = make([]float64, 0, bspThreads*len(e.book.status))
	w.arr = crucial.NewAtomicDoubleArray(fmt.Sprintf("bsp/%d/w", w.id), bspLength)
	rt.Bind(w.arr)
	bspRuns.Store(w.id, w)
	// Warm-up: a short closed-loop job creates the objects and warms the
	// thread containers.
	if _, err := w.runThreads(ctx, cfg.Rate.WarmupOps, false); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// runThreads spawns the two threads for n supersteps and joins them.
// Paced supersteps are due at the times already in the book.
func (w *bspSystem) runThreads(ctx context.Context, n int, paced bool) (int64, error) {
	first := w.e.book.reserve(n)
	return first, w.spawn(ctx, first, n, paced)
}

func (w *bspSystem) spawn(ctx context.Context, first int64, n int, paced bool) error {
	w.barrierSeq++
	bar := crucial.NewCyclicBarrier(fmt.Sprintf("bsp/%d/b%d", w.id, w.barrierSeq), bspThreads)
	threads := make([]*crucial.CloudThread, bspThreads)
	rootID, rootStart := w.e.tr.begin()
	for t := range threads {
		threads[t] = w.rt.NewThread(&bspTask{
			Arr: crucial.NewAtomicDoubleArray(fmt.Sprintf("bsp/%d/w", w.id), bspLength),
			Bar: bar, RunID: w.id, Thread: t, First: first, N: n,
			BaseAcked: w.addsAcked.Load(), BaseFailed: w.addsFailed.Load(),
			Paced: paced, StartNs: w.e.book.now(), Parent: rootID,
		})
		threads[t].StartCtx(ctx)
	}
	err := crucial.JoinAll(threads)
	w.e.tr.end(rootID, 0, first, "faas.invoke", rootStart)
	return err
}

// Run executes the task's supersteps.
func (t *bspTask) Run(tc *crucial.TC) error {
	v, ok := bspRuns.Load(t.RunID)
	if !ok {
		return fmt.Errorf("bsp: unknown run %d", t.RunID)
	}
	w := v.(*bspSystem)
	b := w.e.book
	if w.e.tr != nil {
		w.record(&w.threadStart, nsToMs(b.now()-t.StartNs))
	}
	ctx := tc.Context()
	return w.e.tr.around(t.Parent, t.First, "thread.run", func(span uint64) error {
		ones := make([]float64, bspLength)
		for i := range ones {
			ones[i] = 1
		}
		for k := 0; k < t.N; k++ {
			id := t.First + int64(k)
			if t.Paced {
				if b.due[id] > b.now() {
					b.waitUntil(b.due[id])
					w.record(&w.late, nsToMs(b.now()-b.due[id]))
				}
			} else if t.Thread == 0 {
				b.due[id] = b.now()
			}
			if err := w.superstep(ctx, t, id, int64(k), ones, span); err != nil {
				// The other thread's barrier wait times out. Resetting the
				// barrier would hang instead while it waits (NOTES.md,
				// defect 6).
				b.finish(id, err, true)
				return err
			}
		}
		return nil
	})
}

// bspFault, when set, is asked before each AddAll whether the superstep
// fails there instead: the tests inject failures with it.
var bspFault func(thread int, id int64) error

// superstep is one iteration: read the array, add a vector of ones, wait
// for the other thread. After k completed supersteps of the task every
// slot holds the adds booked before the task plus threads*k, plus at most
// one add of each other thread in the current superstep.
func (w *bspSystem) superstep(ctx context.Context, t *bspTask, id, k int64, ones []float64, span uint64) error {
	var vals []float64
	t0 := time.Now()
	err := w.e.tr.around(span, id, "bsp.getall", func(uint64) error {
		var err error
		vals, err = t.Arr.GetAll(ctx)
		return err
	})
	t1 := time.Now()
	if err != nil {
		return err
	}
	lo := float64(t.BaseAcked + bspThreads*k)
	hi := lo + float64(t.BaseFailed+bspThreads-1)
	for i, v := range vals {
		if v < lo || v > hi {
			msg := fmt.Sprintf("superstep %d: slot %d = %v, want within [%v, %v]", id, i, v, lo, hi)
			w.violation.CompareAndSwap(nil, &msg)
			break
		}
	}
	if bspFault != nil {
		if err := bspFault(t.Thread, id); err != nil {
			return err
		}
	}
	err = w.e.tr.around(span, id, "bsp.addall", func(uint64) error { return t.Arr.AddAll(ctx, ones) })
	t2 := time.Now()
	if err != nil {
		w.addsFailed.Add(1)
		return err
	}
	w.addsAcked.Add(1)
	err = w.e.tr.around(span, id, "bsp.await", func(uint64) error {
		actx, cancel := context.WithTimeout(ctx, bspAwaitTimeout)
		defer cancel()
		_, err := t.Bar.Await(actx)
		return err
	})
	t3 := time.Now()
	if err != nil {
		return err
	}
	if w.e.tr != nil {
		w.mu.Lock()
		w.getAllUs = append(w.getAllUs, float64(t1.Sub(t0))/1e3)
		w.addAllUs = append(w.addAllUs, float64(t2.Sub(t1))/1e3)
		w.awaitUs = append(w.awaitUs, float64(t3.Sub(t2))/1e3)
		w.iterUs = append(w.iterUs, float64(t3.Sub(t0))/1e3)
		w.mu.Unlock()
	}
	// The superstep is complete when the last thread leaves the barrier.
	if w.arrivals[id].Add(1) == bspThreads {
		w.e.book.finish(id, nil, true)
	}
	return nil
}

func (w *bspSystem) record(dst *[]float64, v float64) {
	w.mu.Lock()
	*dst = append(*dst, v)
	w.mu.Unlock()
}

// step paces n supersteps at rate per second and summarizes them like an
// open-loop step: each superstep is due on the schedule and completes
// when both threads have passed its barrier.
func (w *bspSystem) step(ctx context.Context, name string, rate float64, n int) stepResult {
	first := w.e.book.reserve(n)
	interval := int64(float64(time.Second) / rate)
	start := w.e.book.now() + int64(bspLead)
	for k := 0; k < n; k++ {
		w.e.book.due[first+int64(k)] = start + int64(k)*interval
	}
	w.mu.Lock()
	lateFrom := len(w.late)
	w.mu.Unlock()
	// A failed superstep leaves the rest of the step unfinished; the
	// summary counts those as misses.
	_ = w.spawn(ctx, first, n, true)
	w.mu.Lock()
	late := append([]float64(nil), w.late[lateFrom:]...)
	w.mu.Unlock()
	r := summarize(w.e.book, name, rate, first, n, start+int64(n)*interval, late,
		w.cfg.Rate.P99LimitMs, w.cfg.lateBoundMs())
	r.InflightPeak = bspThreads
	return r
}

// job runs JobOpsPerThread supersteps back to back: the fixed BSP job.
func (w *bspSystem) job(ctx context.Context) (jobResult, error) {
	n := w.cfg.Rate.JobOpsPerThread
	billed := w.rt.Platform().Stats().BilledGBSecond
	t0 := time.Now()
	// A failed superstep leaves the rest of the job unfinished; the
	// summary counts those as failed.
	first, _ := w.runThreads(ctx, n, false)
	secs := time.Since(t0).Seconds()
	return w.e.book.job(first, n, secs, w.rt.Platform().Stats().BilledGBSecond-billed), nil
}

// audit checks every slot of the shared array against the adds the
// threads made: each acknowledged add counts, a failed one may.
func (w *bspSystem) audit(ctx context.Context) error {
	if v := w.violation.Load(); v != nil {
		return fmt.Errorf("%s", *v)
	}
	vals, err := w.arr.GetAll(ctx)
	if err != nil {
		return fmt.Errorf("read array: %w", err)
	}
	acked, failed := float64(w.addsAcked.Load()), float64(w.addsFailed.Load())
	if len(vals) != bspLength {
		return fmt.Errorf("array has %d slots, want %d", len(vals), bspLength)
	}
	for i, v := range vals {
		if v < acked || v > acked+failed {
			return fmt.Errorf("slot %d = %v, want %v (threads × supersteps)", i, v, acked)
		}
	}
	return nil
}

func (w *bspSystem) probe() counters {
	var c counters
	for _, id := range w.rt.Cluster().NodeIDs() {
		if n, ok := w.rt.Cluster().Node(id); ok {
			s := n.Stats()
			c.node.Invocations += s.Invocations
			c.node.SMROps += s.SMROps
		}
	}
	c.faas = w.rt.Platform().Stats()
	c.writes = int(w.addsAcked.Load() + w.addsFailed.Load())
	w.mu.Lock()
	c.marks = [2]int{len(w.getAllUs), len(w.threadStart)}
	w.mu.Unlock()
	return c
}

func (w *bspSystem) layers(before, after counters) map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	from, to := before.marks[0], after.marks[0]
	get, add, wait, iter := w.getAllUs[from:to], w.addAllUs[from:to], w.awaitUs[from:to], w.iterUs[from:to]
	var waitSum, iterSum float64
	for i := range wait {
		waitSum += wait[i]
		iterSum += iter[i]
	}
	m := map[string]float64{
		"bsp.getall_us.p50":   pctl(get, 0.5),
		"bsp.addall_us.p50":   pctl(add, 0.5),
		"bsp.await_us.p50":    pctl(wait, 0.5),
		"bsp.await_us.p99":    pctl(wait, 0.99),
		"bsp.barrier_share":   ratio(waitSum, iterSum),
		"thread.start_ms.p50": pctl(w.threadStart[before.marks[1]:after.marks[1]], 0.5),
	}
	// Replay the superstep's own messages: an AddAll of 1 000 doubles and
	// the 8 KB GetAll response.
	vec := make([]float64, bspLength)
	ref := core.Ref{Type: objects.TypeAtomicDoubleArray, Key: fmt.Sprintf("bsp/%d/w", w.id)}
	sample := []codecPair{
		{inv: core.Invocation{Ref: ref, Method: "AddAll", Args: []any{vec}, Init: []any{int64(bspLength)}}, resp: core.Response{}},
		{inv: core.Invocation{Ref: ref, Method: "GetAll", Init: []any{int64(bspLength)}}, resp: core.Response{Results: []any{vec}}},
	}
	for k, v := range codecLayers(sample) {
		m[k] = v
	}
	return m
}

// sideLoad drives the stateful-function layer on the same runtime once
// the supersteps are measured and audited: no other workload reaches
// that layer (NOTES.md).
func (w *bspSystem) sideLoad(ctx context.Context) (map[string]float64, error) {
	per, batches := w.cfg.Rate.StatefunMsgsPerThread, w.cfg.Rate.StatefunBatches
	p, err := newStatefunPhase(w.rt, w.e.tr, w.cfg.Seed, batches*jobThreads*per)
	if err != nil {
		return nil, fmt.Errorf("deploy statefun: %w", err)
	}
	return p.run(ctx, per, batches)
}

func (w *bspSystem) close() {
	bspRuns.Delete(w.id)
	_ = w.rt.Close()
}
