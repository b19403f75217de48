package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"crucial"
)

// smokeConfig shrinks a workload's plan to a run of a few seconds: the
// same code paths and audits, far fewer requests.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	r, err := loadRates()
	if err != nil {
		t.Fatal(err)
	}
	r.MinSamples = 60
	r.MaxLadderSteps = 1
	wr := r.Workloads[workload]
	wr.RungSamples = 60
	wr.JobOpsPerThread, wr.WarmupOps = 20, 20
	wr.StatefunMsgsPerThread, wr.StatefunBatches = 20, 1
	return runConfig{
		Workload: workload, Seed: 7, Seconds: 1, Trace: trace,
		Rates: r, Rate: wr, TraceDir: t.TempDir(),
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics checks that a result prints exactly the wanted metrics with
// their units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %q missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %q unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it passes its audit and prints exactly the metrics BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name := w.Name
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, name, trace)
			out, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			r := out.result
			if !r.Correct || r.Attempted < 1 {
				t.Errorf("%s: result %+v", name, r)
			}
			if trace {
				checkMetrics(t, r.Metrics, spec.PerLayer)
				if name == "bsp_threads" && r.Metrics["statefun.handler_runs_per_msg"].Value < 1 {
					t.Errorf("bsp_threads traced: the stateful-function phase handled no message")
				}
			} else {
				checkMetrics(t, r.Metrics, spec.EndToEnd)
				for n, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want above 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

func TestPerLayerNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, pl := range perLayer {
		if seen[pl.name] {
			t.Errorf("per-layer metric %q listed twice", pl.name)
		}
		seen[pl.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
}

// TestAuditsCatchLostUpdates boots each workload, runs a little load, then
// books one more acknowledgment than the program applied: the audit must
// fail.
func TestAuditsCatchLostUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	ctx := context.Background()
	for _, name := range []string{"kv_read", "kv_write", "bsp_threads"} {
		cfg := smokeConfig(t, name, false)
		sys, _, _, err := boot(ctx, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		sys.step(ctx, "low", 50, 60)
		if err := sys.audit(ctx); err != nil {
			sys.close()
			t.Fatalf("%s: audit of a correct run failed: %v", name, err)
		}
		switch s := sys.(type) {
		case *kvSystem:
			for k := range s.acked {
				if s.issued[k].Load() > 0 {
					s.acked[k].Add(1)
					break
				}
			}
		case *bspSystem:
			s.addsAcked.Add(1)
		}
		if err := sys.audit(ctx); err == nil {
			t.Errorf("%s: audit passed with an acknowledged update missing", name)
		}
		sys.close()
	}
}

// TestStatefunAuditCatchesLostMessages runs a small stateful-function
// phase, then books one more acknowledged message than an instance
// handled: the drain audit must fail.
func TestStatefunAuditCatchesLostMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a runtime")
	}
	ctx := context.Background()
	rt, err := crucial.NewLocalRuntime(crucial.Options{DSONodes: 3, RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p, err := newStatefunPhase(rt, nil, 7, jobThreads*20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.run(ctx, 20, 1)
	if err != nil {
		t.Fatalf("phase of a correct run failed: %v", err)
	}
	if m["statefun.handler_runs_per_msg"] < 1 || m["faas.invocations_per_msg"] <= 0 {
		t.Errorf("phase metrics %v: want every message handled through FaaS dispatch", m)
	}
	for i := range p.acked {
		if p.acked[i].Load() > 0 {
			p.acked[i].Add(1)
			break
		}
	}
	if err := p.audit(ctx); err == nil {
		t.Error("audit passed with an acknowledged message missing")
	}
}

// TestBSPFailedSuperstepIsAFailureNotAViolation makes one thread fail a
// superstep before its add while the other thread's add lands. The step
// must count the failure, and the later steps and the final audit must
// still pass: an availability fault is not a correctness fault.
func TestBSPFailedSuperstepIsAFailureNotAViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a runtime")
	}
	ctx := context.Background()
	cfg := smokeConfig(t, "bsp_threads", false)
	sys, _, _, err := boot(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	w := sys.(*bspSystem)
	failAt := w.e.book.next.Load() + 5
	bspFault = func(thread int, id int64) error {
		if thread == 1 && id == failAt {
			return errors.New("injected superstep failure")
		}
		return nil
	}
	defer func() { bspFault = nil }()
	r := sys.step(ctx, "low", 200, 20)
	if misses(r) == 0 {
		t.Errorf("step with a failed superstep: %+v, want it counted as a miss", r)
	}
	if r := sys.step(ctx, "high", 200, 20); misses(r) != 0 {
		t.Errorf("step after the failure: %+v, want no misses", r)
	}
	job, err := sys.job(ctx)
	if err != nil || job.Failed != 0 {
		t.Errorf("job after the failure: %+v, %v", job, err)
	}
	if err := sys.audit(ctx); err != nil {
		t.Errorf("audit after an injected failure: %v", err)
	}
}
