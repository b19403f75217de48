package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Request states. A request is due at a fixed time; the generator either
// refuses it (in-flight cap full) or sends it. A sent request fails, or
// completes when its op returns (kv) or when a completion stamp arrives
// (statefun: the handler's first entry for the message).
const (
	stPending uint32 = iota // sent, op still running
	stSent                  // op returned, waiting for its stamp
	stOK
	stFailed
	stRefused
)

// book holds every request of one run, indexed by request id. Ids are
// handed out in blocks, one block per step or job; the arrays are sized
// for the whole run up front so stamps never race a resize.
type book struct {
	base   time.Time
	status []atomic.Uint32
	done   []atomic.Int64 // completion, ns since base; 0 = none yet
	due    []int64        // ns since base, written before the op starts
	next   atomic.Int64
}

func newBook(capacity int) *book {
	return &book{
		base:   time.Now(),
		status: make([]atomic.Uint32, capacity),
		done:   make([]atomic.Int64, capacity),
		due:    make([]int64, capacity),
	}
}

// reserve hands out n consecutive ids and returns the first.
func (b *book) reserve(n int) int64 {
	first := b.next.Add(int64(n)) - int64(n)
	if int(first)+n > len(b.status) {
		panic("loadbench: request book too small for the run plan")
	}
	return first
}

func (b *book) now() int64 { return int64(time.Since(b.base)) + 1 }

// spinWindow is the last stretch before a due time that waitUntil spends
// yielding instead of sleeping: a timer sleep on Linux overshoots by up to
// a millisecond, which would otherwise count as latency.
const spinWindow = int64(1500 * time.Microsecond)

// waitUntil blocks until the book clock reaches t (ns since base).
func (b *book) waitUntil(t int64) {
	if d := t - b.now() - spinWindow; d > 0 {
		time.Sleep(time.Duration(d))
	}
	for b.now() < t {
		runtime.Gosched()
	}
}

// stamp records the first completion of id; later stamps are ignored.
func (b *book) stamp(id int64) {
	if b.done[id].CompareAndSwap(0, b.now()) {
		b.status[id].Store(stOK)
	}
}

// finish records the return of id's op. completeOnReturn makes a nil
// error the completion; otherwise the request waits for its stamp.
func (b *book) finish(id int64, err error, completeOnReturn bool) {
	switch {
	case err != nil:
		if b.status[id].CompareAndSwap(stPending, stFailed) {
			b.done[id].CompareAndSwap(0, b.now())
		}
	case completeOnReturn:
		b.stamp(id)
	default:
		b.status[id].CompareAndSwap(stPending, stSent)
	}
}

// loadGen drives one open-loop workload: a single goroutine schedules
// requests at a constant rate, each sent on its own goroutine, with at
// most inflightCap outstanding.
type loadGen struct {
	book             *book
	op               func(ctx context.Context, id int64) error
	completeOnReturn bool
	inflightCap      int
	limitMs          float64
	lateBoundMs      float64
	// drainWait bounds how long a step waits after its window for stamps
	// and returns before counting the rest as unfinished.
	drainWait time.Duration
}

// stepResult is one rate step's outcome.
type stepResult struct {
	Name         string  `json:"name"`
	Rate         float64 `json:"rate_ops"`
	Seconds      float64 `json:"seconds"`
	Attempted    int     `json:"attempted"`
	Samples      int     `json:"samples"`
	Failed       int     `json:"failed"`
	Refused      int     `json:"refused"`
	Unfinished   int     `json:"unfinished"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	TailPct      float64 `json:"tail_percentile"`
	LimitP99Ms   float64 `json:"p99_ms_failures_as_misses"`
	Goodput      float64 `json:"goodput_ops"`
	Backlog      int     `json:"backlog_at_end"`
	LateP99Ms    float64 `json:"gen_late_p99_ms"`
	InflightPeak int     `json:"gen_inflight_peak"`
	Valid        bool    `json:"valid"`
	Flat         bool    `json:"flat_backlog"`
	MeetsLimit   bool    `json:"meets_limit"`
}

// run offers n requests at rate ops/s and returns once every request
// has completed, failed or timed out.
func (g *loadGen) run(ctx context.Context, name string, rate float64, n int) stepResult {
	first := g.book.reserve(n)
	interval := time.Duration(float64(time.Second) / rate)
	stepCtx, cancel := context.WithTimeout(ctx, time.Duration(n)*interval+g.drainWait+10*time.Second)
	defer cancel()

	var inflight atomic.Int64
	var peak int64
	var wg sync.WaitGroup
	late := make([]float64, 0, n)
	start := g.book.now() + int64(time.Millisecond)
	for k := 0; k < n; k++ {
		id := first + int64(k)
		due := start + int64(k)*int64(interval)
		g.book.due[id] = due
		g.book.waitUntil(due)
		late = append(late, nsToMs(g.book.now()-due))
		if inflight.Load() >= int64(g.inflightCap) {
			g.book.status[id].Store(stRefused)
			continue
		}
		if c := inflight.Add(1); c > peak {
			peak = c
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := g.op(stepCtx, id)
			inflight.Add(-1)
			g.book.finish(id, err, g.completeOnReturn)
		}()
	}
	end := start + int64(n)*int64(interval)
	wg.Wait()
	if !g.completeOnReturn {
		deadline := time.Now().Add(g.drainWait)
		for g.book.count(first, n, stSent) > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	r := summarize(g.book, name, rate, first, n, end, late, g.limitMs, g.lateBoundMs)
	r.InflightPeak = int(peak)
	return r
}

// count returns how many of the n requests from first are in state st.
func (b *book) count(first int64, n int, st uint32) int {
	c := 0
	for id := first; id < first+int64(n); id++ {
		if b.status[id].Load() == st {
			c++
		}
	}
	return c
}

// summarize turns the book entries of one step into its result. end is
// when the step's window closed (ns since base); late holds how late the
// generator sent each request, in ms.
func summarize(b *book, name string, rate float64, first int64, n int, end int64, late []float64, limitMs, lateBoundMs float64) stepResult {
	r := stepResult{Name: name, Rate: rate, Attempted: n}
	begin := end
	completedInWindow, goodInWindow := 0, 0
	missed := 0
	var lat []float64
	for id := first; id < first+int64(n); id++ {
		due, done := b.due[id], b.done[id].Load()
		if due < begin {
			begin = due
		}
		switch b.status[id].Load() {
		case stOK:
			lat = append(lat, nsToMs(done-due))
			if done <= end {
				completedInWindow++
				goodInWindow++
			}
		case stFailed:
			r.Failed++
			missed++
			if done <= end {
				completedInWindow++
			}
		case stRefused:
			r.Refused++
			missed++
		default:
			r.Unfinished++
			missed++
		}
	}
	window := float64(end-begin) / 1e9
	r.Seconds = window
	r.Samples = len(lat)
	lat = sorted(lat)
	r.TailPct = tailPercentile(len(lat))
	r.P50Ms = quantile(lat, 0.5)
	r.P90Ms = quantile(lat, 0.9)
	r.P99Ms = quantile(lat, 0.99)
	// Failed, refused and unfinished requests miss any limit: rank them
	// above every latency.
	withMisses := append(append([]float64(nil), lat...), make([]float64, missed)...)
	for i := len(lat); i < len(withMisses); i++ {
		withMisses[i] = math.MaxFloat64
	}
	r.LimitP99Ms = quantile(withMisses, 0.99)
	if window > 0 {
		r.Goodput = float64(goodInWindow) / window
	}
	r.Backlog = n - r.Refused - completedInWindow
	r.LateP99Ms = quantile(sorted(late), 0.99)
	r.Valid = r.LateP99Ms <= lateBoundMs
	r.Flat = float64(r.Backlog) <= backlogAllowance(rate, limitMs)
	r.MeetsLimit = r.Valid && r.Flat && r.LimitP99Ms <= limitMs
	return r
}

// backlogAllowance is how many requests may still be outstanding when a
// step's window closes without the backlog counting as grown: what is in
// flight if every request takes twice the latency limit, plus two.
func backlogAllowance(rate, limitMs float64) float64 {
	return rate*2*limitMs/1000 + 2
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// ratePlan is the rate schedule of one open-loop workload.
type ratePlan struct {
	Low, High float64
	Ladder    []float64
}

// planRates derives the steps from a calibrated knee: low and high at
// fixed shares of it, and a ladder from high upward by factor per step.
func planRates(knee, lowShare, highShare, factor float64, maxLadder int) ratePlan {
	p := ratePlan{Low: knee * lowShare, High: knee * highShare}
	r := p.High
	for i := 0; i < maxLadder; i++ {
		r *= factor
		p.Ladder = append(p.Ladder, r)
	}
	return p
}

// maxRate applies the ladder stop rule: climb from low through high and
// up the ladder until the first step that misses the limit or grows a
// backlog, and return the highest rate met before it (0 if low misses).
// steps holds low, high and the ladder steps run, in order.
func maxRate(steps []stepResult) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.MeetsLimit {
			break
		}
		best = s.Rate
	}
	return best
}
