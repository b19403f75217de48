package main

import (
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
)

// perLayer lists every per-layer metric of the traced run with its unit,
// in the order of BENCHMARK.json. Every workload prints all of them; a
// layer the workload leaves idle reads 0.
var perLayer = []struct{ name, unit string }{
	{"gen.late_p99_ms", "ms"},
	{"gen.inflight_peak", "count"},
	{"gen.fail_ratio", "ratio"},
	{"client.read_us.p50", "us"},
	{"client.read_us.p99", "us"},
	{"client.write_us.p50", "us"},
	{"client.write_us.p99", "us"},
	{"client.cache_hit_ratio", "ratio"},
	{"client.cache_invalidations_per_write", "per_op"},
	{"client.lease_expiries_per_s", "1/s"},
	{"core.invocation_bytes", "bytes"},
	{"core.response_bytes", "bytes"},
	{"core.encode_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"core.gob_fallback_per_op", "per_op"},
	{"server.invocations_per_op", "per_op"},
	{"server.smr_rounds_per_write", "per_op"},
	{"server.batch_size_mean", "per_op"},
	{"server.lease_grants_per_read", "per_op"},
	{"server.lease_refusals_per_read", "per_op"},
	{"server.follower_read_share", "ratio"},
	{"server.local_read_share", "ratio"},
	{"server.dedup_hits_per_op", "per_op"},
	{"server.exec_us.p50", "us"},
	{"server.monitor_wait_us.p50", "us"},
	{"rpc.client_rtt_us.p50", "us"},
	{"wal.puts_per_write", "per_op"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.put_us.p50", "us"},
	{"wal.put_us.p99", "us"},
	{"checkpoint.puts_per_s", "1/s"},
	{"checkpoint.bytes_per_s", "bytes/s"},
	{"checkpoint.put_ms.p99", "ms"},
	{"statefun.send_us.p50", "us"},
	{"statefun.send_us.p99", "us"},
	{"statefun.dispatch_ms.p50", "ms"},
	{"statefun.dispatch_ms.p99", "ms"},
	{"statefun.handler_runs_per_msg", "per_op"},
	{"statefun.dups", "count"},
	{"statefun.rejected", "count"},
	{"statefun.drain_ms", "ms"},
	{"faas.invocations_per_msg", "per_op"},
	{"faas.cold_starts", "count"},
	{"faas.invoke_us.p50", "us"},
	{"thread.start_ms.p50", "ms"},
	{"bsp.getall_us.p50", "us"},
	{"bsp.addall_us.p50", "us"},
	{"bsp.await_us.p50", "us"},
	{"bsp.await_us.p99", "us"},
	{"bsp.barrier_share", "ratio"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_bytes_per_op", "bytes"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.goroutines_peak", "count"},
	{"self_us.gen.op", "us"},
	{"self_us.client.invoke", "us"},
	{"self_us.faas.invoke", "us"},
	{"self_us.statefun.send", "us"},
	{"self_us.statefun.handler", "us"},
	{"self_us.thread.run", "us"},
	{"self_us.bsp.getall", "us"},
	{"self_us.bsp.addall", "us"},
	{"self_us.bsp.await", "us"},
	{"self_us.coldstore.put", "us"},
	{"self_us.job", "us"},
	{"trace.overhead_ms.p50_high", "ms"},
	{"trace.overhead_ms.p99_high", "ms"},
	{"trace.spans", "count"},
}

// genLayers reports how the generator itself behaved across all steps.
func genLayers(steps []stepResult, failRatio float64) map[string]float64 {
	m := map[string]float64{"gen.fail_ratio": failRatio}
	for _, s := range steps {
		m["gen.late_p99_ms"] = max(m["gen.late_p99_ms"], s.LateP99Ms)
		m["gen.inflight_peak"] = max(m["gen.inflight_peak"], float64(s.InflightPeak))
	}
	return m
}

// processLayers reports the Go runtime's costs per request.
func processLayers(before, after counters, goroutinesPeak float64) map[string]float64 {
	ops := float64(after.ops - before.ops)
	return map[string]float64{
		"proc.cpu_us_per_op":      ratio(float64(after.cpu-before.cpu)/1e3, ops),
		"proc.alloc_bytes_per_op": ratio(float64(after.alloc-before.alloc), ops),
		"proc.gc_pause_ms":        float64(after.gcPause-before.gcPause) / 1e6,
		"proc.goroutines_peak":    goroutinesPeak,
	}
}

// programLayers derives the per-layer ratios every workload shares from
// the counters the program exports: node stats, client cache stats, the
// codec counters, FaaS platform stats and the telemetry registry.
func programLayers(before, after counters) map[string]float64 {
	ops := float64(after.ops - before.ops)
	writes := float64(after.writes - before.writes)
	reads := float64(after.reads - before.reads)
	secs := after.at.Sub(before.at).Seconds()
	ctr := func(name string) float64 {
		return float64(after.tel.Counters[name] - before.tel.Counters[name])
	}
	hist := func(name string) telemetry.HistogramSnapshot {
		return histDelta(before.tel.Histograms[name], after.tel.Histograms[name])
	}
	usP50 := func(name string) float64 { return float64(hist(name).Quantile(0.5)) / 1e3 }
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	batch := hist(telemetry.HistServerBatchSize)
	return map[string]float64{
		"client.cache_hit_ratio":               ratio(hits, hits+misses),
		"client.cache_invalidations_per_write": ratio(float64(after.cache.Invalidations-before.cache.Invalidations), writes),
		"client.lease_expiries_per_s":          ratio(float64(after.cache.LeaseExpiries-before.cache.LeaseExpiries), secs),
		"core.gob_fallback_per_op":             ratio(float64(after.codec.FallbackValues-before.codec.FallbackValues), ops),
		"server.invocations_per_op":            ratio(float64(after.node.Invocations-before.node.Invocations), ops),
		"server.smr_rounds_per_write":          ratio(float64(after.node.SMROps-before.node.SMROps), writes),
		"server.batch_size_mean":               ratio(float64(batch.Sum/time.Microsecond), float64(batch.Count)),
		"server.lease_grants_per_read":         ratio(ctr(telemetry.MetServerLeaseGrants), reads),
		"server.lease_refusals_per_read":       ratio(ctr(telemetry.MetServerLeaseRefusals), reads),
		"server.follower_read_share":           ratio(ctr(telemetry.MetServerFollowerReads), reads),
		"server.local_read_share":              ratio(ctr(telemetry.MetServerLocalReads), reads),
		"server.dedup_hits_per_op":             ratio(ctr(telemetry.MetServerDedupHits), ops),
		"server.exec_us.p50":                   usP50(telemetry.HistServerExec),
		"server.monitor_wait_us.p50":           usP50(telemetry.HistServerMonitorWait),
		"rpc.client_rtt_us.p50":                usP50(telemetry.HistClientRPC),
		"faas.cold_starts":                     float64(after.faas.ColdStarts - before.faas.ColdStarts),
		"faas.invoke_us.p50":                   usP50(telemetry.HistFaaSInvoke),
	}
}

// histDelta returns the samples a histogram gained between two snapshots.
func histDelta(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{
		Count: after.Count - before.Count,
		Sum:   after.Sum - before.Sum,
		Min:   after.Min,
		Max:   after.Max,
	}
	for i, c := range after.Buckets {
		if i < len(before.Buckets) {
			c -= before.Buckets[i]
		}
		d.Buckets = append(d.Buckets, c)
	}
	return d
}

// pctl returns the p-quantile of unsorted samples.
func pctl(xs []float64, p float64) float64 { return quantile(sorted(xs), p) }

// codecReplays is how often each sampled message is re-encoded, so the
// per-message codec times average over many calls.
const codecReplays = 20

// codecLayers replays a sample of the run's own invocations and
// responses through the public codec and reports their mean sizes and
// encode/decode times per message.
func codecLayers(sample []codecPair) map[string]float64 {
	var invBytes, respBytes, encNs, decNs, msgs float64
	for _, p := range sample {
		for i := 0; i < codecReplays; i++ {
			t0 := time.Now()
			ib, err1 := core.EncodeInvocation(p.inv)
			rb, err2 := core.EncodeResponse(p.resp)
			t1 := time.Now()
			if err1 != nil || err2 != nil {
				break
			}
			_, err1 = core.DecodeInvocation(ib)
			_, err2 = core.DecodeResponse(rb)
			t2 := time.Now()
			if err1 != nil || err2 != nil {
				break
			}
			invBytes += float64(len(ib))
			respBytes += float64(len(rb))
			encNs += float64(t1.Sub(t0))
			decNs += float64(t2.Sub(t1))
			msgs += 2
		}
	}
	return map[string]float64{
		"core.invocation_bytes": ratio(invBytes, msgs/2),
		"core.response_bytes":   ratio(respBytes, msgs/2),
		"core.encode_ns":        ratio(encNs, msgs),
		"core.decode_ns":        ratio(decNs, msgs),
	}
}

// durabilityLayers splits the cold-store Puts of the window into WAL
// segment writes (per write acknowledged) and checkpoint writes (per
// second).
func durabilityLayers(before, after counters) map[string]float64 {
	wal := after.wal.since(before.wal)
	snap := after.snap.since(before.snap)
	writes := float64(after.writes - before.writes)
	secs := after.at.Sub(before.at).Seconds()
	return map[string]float64{
		"wal.puts_per_write":     ratio(float64(len(wal.ms)), writes),
		"wal.bytes_per_write":    ratio(float64(wal.bytes), writes),
		"wal.put_us.p50":         pctl(wal.ms, 0.5) * 1e3,
		"wal.put_us.p99":         pctl(wal.ms, 0.99) * 1e3,
		"checkpoint.puts_per_s":  ratio(float64(len(snap.ms)), secs),
		"checkpoint.bytes_per_s": ratio(float64(snap.bytes), secs),
		"checkpoint.put_ms.p99":  pctl(snap.ms, 0.99),
	}
}
