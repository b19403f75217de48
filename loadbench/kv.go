package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/faas"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/storage/s3sim"
)

// kvShape is what separates kv_read from kv_write.
type kvShape struct {
	keys      int
	readShare float64
	leases    bool // LeaseTTL on, client cache on
	durable   bool // DefaultDurabilityPolicy on a zero-latency s3sim
}

// leaseTTL is the lease length dso-server suggests.
const leaseTTL = 500 * time.Millisecond

// kvJobFunction is the FaaS function that runs the closed-loop job.
const kvJobFunction = "kv-job"

// codecSampleEvery picks which requests the traced run's codec replay
// re-encodes.
const codecSampleEvery = 32

// maxErrLogged is how many failed requests a run describes on stderr.
const maxErrLogged = 5

func newKVRead(ctx context.Context, cfg runConfig, e env) (system, error) {
	return newKV(ctx, cfg, e, kvShape{keys: 10000, readShare: 0.95, leases: true})
}

func newKVWrite(ctx context.Context, cfg runConfig, e env) (system, error) {
	return newKV(ctx, cfg, e, kvShape{keys: 1000, readShare: 0, durable: true})
}

// kvSystem drives persistent AtomicLongs through client.InvokeObject.
type kvSystem struct {
	shape   kvShape
	cfg     runConfig
	e       env
	clu     *cluster.Cluster
	clients []*client.Client
	store   *timedStore
	plat    *faas.Platform

	// Inputs, per request id, drawn from the seed before the run.
	key  []int32
	read []bool
	// Time inside InvokeObject per request id, ns.
	callNs []int64

	// Audit state, per key: increments sent, acknowledged, and failed
	// (in doubt: applied or not).
	issued, acked, inDoubt []atomic.Int64
	reads, writes          atomic.Int64
	errLogged              atomic.Int64
	violation              atomic.Pointer[string]

	codecMu     sync.Mutex
	codecSample []codecPair
}

// codecPair is one request's invocation and response, replayed through
// the public codec after the run.
type codecPair struct {
	inv  core.Invocation
	resp core.Response
}

func newKV(ctx context.Context, cfg runConfig, e env, shape kvShape) (system, error) {
	opts := cluster.Options{
		Nodes:     3,
		RF:        2,
		Profile:   netsim.Zero(),
		Telemetry: e.tel,
		Write:     core.DefaultWritePolicy(),
	}
	w := &kvSystem{shape: shape, cfg: cfg, e: e}
	if shape.leases {
		opts.LeaseTTL = leaseTTL
		opts.ClientCache = true
		opts.ClientCacheObjects = 1024
	}
	if shape.durable {
		w.store = &timedStore{Storage: s3sim.New(s3sim.Options{Profile: netsim.Zero()}), tr: e.tr}
		opts.Durability = core.DefaultDurabilityPolicy()
		opts.ColdStore = w.store
	}
	clu, err := cluster.StartLocal(opts)
	if err != nil {
		return nil, err
	}
	w.clu = clu
	// One connection per job thread, but never more than one per CPU: the
	// load shape's connection budget.
	for i := 0; i < min(jobThreads, runtime.NumCPU()); i++ {
		c, err := clu.NewClient()
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	w.plat = faas.NewPlatform(faas.Options{Profile: netsim.Zero(), Telemetry: e.tel})
	if err := w.plat.Deploy(kvJobFunction, w.jobHandler, faas.FunctionConfig{}); err != nil {
		w.close()
		return nil, err
	}
	w.draw(len(e.book.status))
	w.issued = make([]atomic.Int64, shape.keys)
	w.acked = make([]atomic.Int64, shape.keys)
	w.inDoubt = make([]atomic.Int64, shape.keys)
	if shape.readShare > 0 {
		if err := w.preload(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := w.warmUp(ctx); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// draw generates every request's key and kind from the seed: zipf(1.1)
// over the key space, reads with probability readShare.
func (w *kvSystem) draw(n int) {
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.shape.keys-1))
	w.key = make([]int32, n)
	w.read = make([]bool, n)
	w.callNs = make([]int64, n)
	for i := range w.key {
		w.key[i] = int32(zipf.Uint64())
		w.read[i] = rng.Float64() < w.shape.readShare
	}
}

// warmUp runs the first requests closed loop, one worker per client, so
// connections, leases and hot objects exist before measuring.
func (w *kvSystem) warmUp(ctx context.Context) error {
	n := w.cfg.Rate.WarmupOps
	first := w.e.book.reserve(n)
	errs := make(chan error, len(w.clients))
	for t, c := range w.clients {
		go func() {
			var err error
			for id := first + int64(t); id < first+int64(n) && err == nil; id += int64(len(w.clients)) {
				err = w.call(ctx, c, id, 0)
			}
			errs <- err
		}()
	}
	var firstErr error
	for range w.clients {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// preloadWorkers is how many increments the preload keeps in flight.
const preloadWorkers = 64

// preload creates every key the run's requests name with one increment
// before the run, as a store that is read from holds its objects
// already. A Get of a key no write has created yet can fail: a follower
// without a copy bounces it until the client gives up (NOTES.md, defect
// 5). Keys no request names stay absent; no request can tell.
func (w *kvSystem) preload(ctx context.Context) error {
	seen := make([]bool, w.shape.keys)
	var keys []int32
	for _, k := range w.key {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	var next atomic.Int64
	errs := make(chan error, preloadWorkers)
	for g := 0; g < preloadWorkers; g++ {
		c := w.clients[g%len(w.clients)]
		go func() {
			for i := next.Add(1) - 1; i < int64(len(keys)); i = next.Add(1) - 1 {
				k := keys[i]
				w.issued[k].Add(1)
				inv := core.Invocation{
					Ref:     core.Ref{Type: objects.TypeAtomicLong, Key: keyName(k)},
					Method:  "IncrementAndGet",
					Persist: true,
				}
				if _, err := c.InvokeObject(ctx, inv); err != nil {
					w.inDoubt[k].Add(1)
					errs <- fmt.Errorf("%s: %w", inv.Ref, err)
					return
				}
				w.acked[k].Add(1)
			}
			errs <- nil
		}()
	}
	var firstErr error
	for g := 0; g < preloadWorkers; g++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func keyName(k int32) string { return fmt.Sprintf("k%05d", k) }

// call sends request id through c: a Get or an IncrementAndGet on its
// key, checked against the increments issued to that key so far.
func (w *kvSystem) call(ctx context.Context, c *client.Client, id int64, parent uint64) error {
	k := w.key[id]
	inv := core.Invocation{
		Ref:     core.Ref{Type: objects.TypeAtomicLong, Key: keyName(k)},
		Method:  "Get",
		Persist: true,
	}
	read := w.read[id]
	if read {
		w.reads.Add(1)
	} else {
		inv.Method = "IncrementAndGet"
		w.issued[k].Add(1)
		w.writes.Add(1)
	}
	spanID, start := w.e.tr.begin()
	t0 := time.Now()
	res, err := c.InvokeObject(ctx, inv)
	w.callNs[id] = int64(time.Since(t0))
	w.e.tr.end(spanID, parent, id, "client.invoke", start)
	if err != nil {
		if !read {
			w.inDoubt[k].Add(1)
		}
		if w.errLogged.Add(1) <= maxErrLogged {
			fmt.Fprintf(os.Stderr, "loadbench: request %d: %s %s: %v\n", id, inv.Method, inv.Ref, err)
		}
		return err
	}
	if !read {
		w.acked[k].Add(1)
	}
	v, ok := one[int64](res)
	switch {
	case !ok:
		w.fail(fmt.Sprintf("%s %s returned %v", inv.Method, inv.Ref, res))
	case v > w.issued[k].Load():
		w.fail(fmt.Sprintf("%s %s = %d, above the %d increments issued", inv.Method, inv.Ref, v, w.issued[k].Load()))
	case !read && v < 1:
		w.fail(fmt.Sprintf("IncrementAndGet %s = %d", inv.Ref, v))
	}
	if w.e.tr != nil && id%codecSampleEvery == 0 {
		w.codecMu.Lock()
		w.codecSample = append(w.codecSample, codecPair{inv: inv, resp: core.Response{Results: res}})
		w.codecMu.Unlock()
	}
	return nil
}

// one extracts a single typed result.
func one[T any](res []any) (T, bool) {
	var zero T
	if len(res) != 1 {
		return zero, false
	}
	v, ok := res[0].(T)
	return v, ok
}

func (w *kvSystem) fail(msg string) { w.violation.CompareAndSwap(nil, &msg) }

// step offers requests open loop, alternating the two clients.
func (w *kvSystem) step(ctx context.Context, name string, rate float64, n int) stepResult {
	g := &loadGen{
		book:             w.e.book,
		completeOnReturn: true,
		inflightCap:      w.cfg.Rates.InflightCap,
		limitMs:          w.cfg.Rate.P99LimitMs,
		lateBoundMs:      w.cfg.lateBoundMs(),
		op: func(ctx context.Context, id int64) error {
			opID, _ := w.e.tr.begin()
			err := w.call(ctx, w.clients[id%int64(len(w.clients))], id, opID)
			w.e.tr.end(opID, 0, id, "gen.op", w.e.book.due[id])
			return err
		},
	}
	return g.run(ctx, name, rate, n)
}

// kvJobArgs is the payload of one job function: a block of request ids
// run closed loop on one client.
type kvJobArgs struct {
	Thread int
	First  int64
	N      int
	Parent uint64
}

// jobHandler is the job function's body.
func (w *kvSystem) jobHandler(ctx context.Context, payload []byte) ([]byte, error) {
	var a kvJobArgs
	if err := core.DecodeValue(payload, &a); err != nil {
		return nil, err
	}
	c := w.clients[a.Thread%len(w.clients)]
	return nil, w.e.tr.around(a.Parent, a.First, "thread.run", func(id uint64) error {
		for rid := a.First; rid < a.First+int64(a.N); rid++ {
			w.e.book.due[rid] = w.e.book.now()
			err := w.call(ctx, c, rid, id)
			w.e.book.finish(rid, err, true)
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// job runs JobOpsPerThread requests on each of two job functions.
func (w *kvSystem) job(ctx context.Context) (jobResult, error) {
	return runJob(ctx, w.e, w.plat, kvJobFunction, w.cfg.Rate.JobOpsPerThread, jobThreads,
		func(t int, first int64, n int, parent uint64) ([]byte, error) {
			return core.EncodeValue(kvJobArgs{Thread: t, First: first, N: n, Parent: parent})
		}, nil)
}

// audit reads every key that received an increment and checks that the
// final value counts every acknowledged increment and nothing beyond the
// ones sent.
func (w *kvSystem) audit(ctx context.Context) error {
	if v := w.violation.Load(); v != nil {
		return errors.New(*v)
	}
	for k := range w.issued {
		sent := w.issued[k].Load()
		if sent == 0 {
			continue
		}
		inv := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: keyName(int32(k))}, Method: "Get", Persist: true}
		res, err := w.clients[0].InvokeObject(ctx, inv)
		if err != nil {
			return fmt.Errorf("read %s: %w", inv.Ref, err)
		}
		final, ok := one[int64](res)
		acked, doubt := w.acked[k].Load(), w.inDoubt[k].Load()
		if !ok || final < acked || final > acked+doubt {
			return fmt.Errorf("%s = %v, want between %d acknowledged and %d sent", inv.Ref, res, acked, acked+doubt)
		}
	}
	return nil
}

func (w *kvSystem) probe() counters {
	var c counters
	for _, id := range w.clu.NodeIDs() {
		if n, ok := w.clu.Node(id); ok {
			s := n.Stats()
			c.node.Invocations += s.Invocations
			c.node.SMROps += s.SMROps
			c.node.Transfers += s.Transfers
		}
	}
	for _, cl := range w.clients {
		s := cl.DebugCacheStats()
		c.cache.Hits += s.Hits
		c.cache.Misses += s.Misses
		c.cache.Invalidations += s.Invalidations
		c.cache.LeaseExpiries += s.LeaseExpiries
	}
	c.faas = w.plat.Stats()
	c.writes = int(w.writes.Load())
	c.reads = int(w.reads.Load())
	if w.store != nil {
		c.wal, c.snap = w.store.snapshot()
	}
	return c
}

func (w *kvSystem) layers(before, after counters) map[string]float64 {
	var readUs, writeUs []float64
	for id := before.ops; id < after.ops; id++ {
		if w.callNs[id] == 0 {
			continue
		}
		if w.read[id] {
			readUs = append(readUs, float64(w.callNs[id])/1e3)
		} else {
			writeUs = append(writeUs, float64(w.callNs[id])/1e3)
		}
	}
	m := map[string]float64{
		"client.read_us.p50":  pctl(readUs, 0.5),
		"client.read_us.p99":  pctl(readUs, 0.99),
		"client.write_us.p50": pctl(writeUs, 0.5),
		"client.write_us.p99": pctl(writeUs, 0.99),
	}
	w.codecMu.Lock()
	sample := append([]codecPair(nil), w.codecSample...)
	w.codecMu.Unlock()
	for k, v := range codecLayers(sample) {
		m[k] = v
	}
	for k, v := range durabilityLayers(before, after) {
		m[k] = v
	}
	return m
}

func (w *kvSystem) close() {
	for _, c := range w.clients {
		_ = c.Close()
	}
	if w.clu != nil {
		_ = w.clu.Close()
	}
}
