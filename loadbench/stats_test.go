package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{99, 0.5},
		{0, 0.5},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func step(name string, rate float64, meets bool) stepResult {
	return stepResult{Name: name, Rate: rate, MeetsLimit: meets}
}

func TestMaxRateStopsAtFirstMiss(t *testing.T) {
	steps := []stepResult{
		step("low", 100, true), step("high", 280, true),
		step("ladder01", 300, true), step("ladder02", 320, false), step("ladder03", 350, true),
	}
	if got := maxRate(steps); got != 300 {
		t.Errorf("maxRate = %v, want 300: the ladder stops at its first miss", got)
	}
	if got := maxRate([]stepResult{step("low", 100, false), step("high", 280, true)}); got != 0 {
		t.Errorf("maxRate with low missing = %v, want 0", got)
	}
	if got := maxRate([]stepResult{step("low", 100, true), step("high", 280, false)}); got != 100 {
		t.Errorf("maxRate with high missing = %v, want the low rate", got)
	}
}

func TestPlanRatesLadderSpacing(t *testing.T) {
	p := planRates(1000, 0.25, 0.7, 1.08, 5)
	if p.Low != 250 || p.High != 700 || len(p.Ladder) != 5 {
		t.Fatalf("plan = %+v", p)
	}
	prev := p.High
	for _, r := range p.Ladder {
		if r <= prev || r > prev*1.10 {
			t.Errorf("rung %v is not within 10%% above %v", r, prev)
		}
		prev = r
	}
}

// fill records one synthetic request in the book.
func fill(b *book, id int64, due, done int64, st uint32) {
	b.due[id] = due
	b.done[id].Store(done)
	b.status[id].Store(st)
}

func TestSummarizeCountsFailuresAndLateness(t *testing.T) {
	const ms = int64(time.Millisecond)
	b := newBook(1000)
	first := b.reserve(1000)
	// 1000 requests due 1 ms apart: 980 complete in 2 ms, 10 fail, 5 are
	// refused by the cap and 5 never finish.
	for k := int64(0); k < 1000; k++ {
		due := k * ms
		switch {
		case k < 980:
			fill(b, first+k, due, due+2*ms, stOK)
		case k < 990:
			fill(b, first+k, due, due+ms, stFailed)
		case k < 995:
			fill(b, first+k, due, 0, stRefused)
		default:
			fill(b, first+k, due, 0, stSent)
		}
	}
	late := make([]float64, 1000)
	late[999] = 9 // one very late send does not move the p99
	r := summarize(b, "high", 1000, first, 1000, 1000*ms, late, 5, 1)
	if r.Samples != 980 || r.Failed != 10 || r.Refused != 5 || r.Unfinished != 5 {
		t.Fatalf("counts = %+v", r)
	}
	if r.P50Ms != 2 || r.P99Ms != 2 {
		t.Errorf("p50/p99 = %v/%v ms, want 2/2", r.P50Ms, r.P99Ms)
	}
	if r.LimitP99Ms != math.MaxFloat64 {
		t.Errorf("p99 counting 20 misses as infinite = %v, want a miss", r.LimitP99Ms)
	}
	if r.MeetsLimit {
		t.Error("a step with 2% misses met a p99 limit")
	}
	if !r.Valid || r.LateP99Ms != 0 {
		t.Errorf("late p99 = %v, valid = %v", r.LateP99Ms, r.Valid)
	}
	for i := 0; i < 20; i++ {
		late[i] = 9
	}
	if r := summarize(b, "high", 1000, first, 1000, 1000*ms, late, 5, 1); r.Valid {
		t.Errorf("late p99 %v ms over a 1 ms bound left the step valid", r.LateP99Ms)
	}
}

func TestSummarizeFlagsGrowingBacklog(t *testing.T) {
	const ms = int64(time.Millisecond)
	b := newBook(1000)
	first := b.reserve(1000)
	// Every request takes 1 ms longer than the last: by the window's end
	// hundreds are still outstanding.
	for k := int64(0); k < 1000; k++ {
		fill(b, first+k, k*ms, k*ms+k*ms, stOK)
	}
	r := summarize(b, "ladder01", 1000, first, 1000, 1000*ms, make([]float64, 1000), 10, 5)
	if r.Flat || r.Backlog < 400 {
		t.Errorf("backlog %d, flat %v: want a grown backlog", r.Backlog, r.Flat)
	}
	if r.MeetsLimit {
		t.Error("a step with a grown backlog met the limit")
	}
}

func TestCombineTakesMediansAndMajority(t *testing.T) {
	reps := []stepResult{
		{Name: "low", Rate: 10, Attempted: 100, Failed: 1, P50Ms: 1, P90Ms: 2, P99Ms: 9, Seconds: 1, Goodput: 9, MeetsLimit: true, Valid: true, Flat: true},
		{Name: "low", Rate: 10, Attempted: 100, P50Ms: 3, P90Ms: 4, P99Ms: 50, Seconds: 2, Goodput: 3, MeetsLimit: false, Valid: true, Flat: true},
		{Name: "low", Rate: 10, Attempted: 100, P50Ms: 2, P90Ms: 3, P99Ms: 8, Seconds: 1, Goodput: 15, MeetsLimit: true, Valid: true, Flat: true},
	}
	c := combine(reps)
	if c.Attempted != 300 || c.Failed != 1 {
		t.Errorf("counts = %d attempted, %d failed", c.Attempted, c.Failed)
	}
	if c.P50Ms != 2 || c.P90Ms != 3 || c.P99Ms != 9 {
		t.Errorf("medians = %v %v %v", c.P50Ms, c.P90Ms, c.P99Ms)
	}
	if c.Goodput != 7.5 {
		t.Errorf("goodput = %v, want 7.5: 30 good completions over 4 s", c.Goodput)
	}
	if !c.MeetsLimit {
		t.Error("two of three repeats met the limit, the combined step did not")
	}
}

func TestCombineJobsTakesMediansAndPoolsIterations(t *testing.T) {
	reps := []jobResult{
		{Seconds: 1, Attempted: 3, BilledGBs: 2, iterMs: []float64{1, 2, 3}},
		{Seconds: 9, Attempted: 3, Failed: 1, BilledGBs: 8, iterMs: []float64{4, 5}},
		{Seconds: 2, Attempted: 3, BilledGBs: 3, iterMs: []float64{6, 7, 8}},
	}
	c := combineJobs(reps)
	if c.Attempted != 9 || c.Failed != 1 {
		t.Errorf("counts = %d attempted, %d failed", c.Attempted, c.Failed)
	}
	if c.Seconds != 2 || c.BilledGBs != 3 {
		t.Errorf("medians = %v s, %v GB-s; want 2, 3", c.Seconds, c.BilledGBs)
	}
	if c.IterP50Ms != 4 || c.IterP99Ms != 8 {
		t.Errorf("pooled p50, p99 = %v, %v; want 4, 8", c.IterP50Ms, c.IterP99Ms)
	}
}

func TestMoreSetupsHonoursCountAndBudget(t *testing.T) {
	cases := []struct {
		n       int
		elapsed time.Duration
		want    bool
	}{
		{1, 10 * time.Second, true},            // below the minimum count
		{minSetups, 0, true},                   // budget left
		{minSetups, setupBudget, false},        // minimum met, budget spent
		{maxSetups, 0, false},                  // at the cap
		{minSetups - 1, setupBudget * 2, true}, // minimum first
	}
	for _, c := range cases {
		if got := moreSetups(c.n, c.elapsed); got != c.want {
			t.Errorf("moreSetups(%d, %v) = %v, want %v", c.n, c.elapsed, got, c.want)
		}
	}
}

func TestLoadGenRefusesPastTheInflightCap(t *testing.T) {
	release := make(chan struct{})
	b := newBook(100)
	// Requests 0-3 hold the four slots until request 4 has been refused;
	// the later ones fail.
	go func() {
		for b.status[4].Load() != stRefused {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
	}()
	g := &loadGen{
		book:             b,
		completeOnReturn: true,
		inflightCap:      4,
		limitMs:          1000,
		lateBoundMs:      1000,
		op: func(ctx context.Context, id int64) error {
			if id >= 4 {
				return errors.New("boom")
			}
			<-release
			return nil
		},
	}
	r := g.run(context.Background(), "low", 1000, 20)
	if r.Attempted != 20 || r.Samples+r.Failed+r.Refused != 20 {
		t.Fatalf("accounting = %+v", r)
	}
	if r.Refused == 0 {
		t.Error("no request was refused by the in-flight cap")
	}
	if r.Failed == 0 {
		t.Error("failed ops were not counted")
	}
	if r.InflightPeak != 4 {
		t.Errorf("inflight peak = %d, want the cap of 4", r.InflightPeak)
	}
	if r.MeetsLimit {
		t.Error("a step with failures met the limit")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "gen.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.invoke", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "client.invoke", Start: 50, End: 90},
	}
	self := tr.selfTimes()
	// gen.op: 100 ns minus the 80 ns its overlapping children cover.
	if got := self["gen.op"]; math.Abs(got-0.020) > 1e-9 {
		t.Errorf("gen.op self = %v µs, want 0.020", got)
	}
	if got := self["client.invoke"]; math.Abs(got-0.045) > 1e-9 {
		t.Errorf("client.invoke self = %v µs, want 0.045", got)
	}
}

func TestHostScaleBringsTimesToNominal(t *testing.T) {
	if got, want := hostScale(16, []float64{8, 32, 30}), 16.0/30; got != want {
		t.Errorf("hostScale = %v, want %v: the nominal over the median reference time", got, want)
	}
	if ms := hostRefMs(); ms <= 0 {
		t.Errorf("hostRefMs = %v, want a positive time", ms)
	}
}

func TestHostAdjustedTakesOutStealAndScales(t *testing.T) {
	rs := []round{
		{Low: stepResult{P50Ms: 2}, Jobs: []jobResult{{Seconds: 4}, {Seconds: 4}}, StealShare: 0.5},
		{Low: stepResult{P50Ms: 1}, Jobs: []jobResult{{Seconds: 2}, {Seconds: 3}}},
		{Low: stepResult{P50Ms: 3}, Jobs: []jobResult{{Seconds: 1}, {Seconds: 5}}},
	}
	low, job := hostAdjusted(rs, 2)
	// Rounds' p50 after steal: 1, 1, 3; jobs: 2, 2, 2, 3, 1, 5.
	if low != 2 || job != 4 {
		t.Errorf("hostAdjusted = %v ms, %v s; want 2, 4: medians 1 and 2, scaled by 2", low, job)
	}
}

func TestSamplerTakesTheMedianLapPeak(t *testing.T) {
	s := &sampler{stopCh: make(chan struct{})}
	for _, peak := range []float64{5, 1, 3} {
		s.heap, s.live = peak, 0
		s.lap()
	}
	if heap, _ := s.stop(); heap != 3 {
		t.Errorf("heap = %v, want 3: the median of the lap peaks 5, 1, 3", heap)
	}
}
