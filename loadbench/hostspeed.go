package main

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"time"
)

// The benchmark shares a host whose speed drifts by a third and more
// over minutes, and every timing of a ten-run set moves with it (see
// NOTES.md, Steadiness). Two corrections bring the timed metrics,
// setup_s, p50_ms.low and job_s, to a reference host:
//
//   - Steal. The share of the vCPUs' time the hypervisor gave to other
//     guests (/proc/stat) is time the program could not run, so the
//     set-up's and each round's times are multiplied by one minus the
//     share measured while they ran.
//   - Speed. A run times a fixed reference before and after every step
//     and job, and scales the times by the nominal reference time
//     (rates.json) over the run's median. The reference has the shape of
//     the program's in-process calls — two clients exchanging small
//     requests with three server goroutines over channels, allocating
//     and hashing — but runs none of its code.
//
// Neither correction reads the program, so a change to it moves the
// corrected times as it moves the raw ones. The report prints both, the
// run's steal share and its median reference time.

// refRequests is how many requests each reference client sends: a pass
// of a few milliseconds.
const refRequests = 3000

// refReq is one reference request.
type refReq struct {
	key   uint64
	buf   []byte
	reply chan uint64
}

// hostRefMs times one reference pass in ms.
func hostRefMs() float64 {
	servers := make([]chan refReq, 3)
	var swg sync.WaitGroup
	for i := range servers {
		servers[i] = make(chan refReq, 4)
		swg.Add(1)
		go func(in chan refReq) {
			defer swg.Done()
			state := make(map[uint64]uint64)
			for r := range in {
				v := state[r.key] + uint64(len(r.buf))
				state[r.key] = v
				out := make([]byte, 64)
				binary.PutUvarint(out, v)
				h := fnv.New64a()
				h.Write(r.buf)
				h.Write(out)
				r.reply <- h.Sum64()
			}
		}(servers[i])
	}
	t0 := time.Now()
	var cwg sync.WaitGroup
	for c := 0; c < jobThreads; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			reply := make(chan uint64)
			for i := 0; i < refRequests; i++ {
				buf := make([]byte, 128)
				binary.LittleEndian.PutUint64(buf, uint64(i*jobThreads+c))
				servers[(i+c)%len(servers)] <- refReq{key: uint64(i % 97), buf: buf, reply: reply}
				<-reply
			}
		}()
	}
	cwg.Wait()
	ms := float64(time.Since(t0)) / 1e6
	for _, in := range servers {
		close(in)
	}
	swg.Wait()
	return ms
}

// hostScale is the factor that brings a run's times to the nominal host
// speed: the nominal reference time over the median of the run's.
func hostScale(nominalMs float64, refMs []float64) float64 {
	return ratio(nominalMs, median(refMs))
}

// hostAdjusted returns the medians over the rounds of the low step's p50
// and of the jobs' wall times, each with its round's stolen share taken
// out and scaled by scale.
func hostAdjusted(rs []round, scale float64) (lowP50Ms, jobS float64) {
	var lows, jobs []float64
	for _, r := range rs {
		own := 1 - r.StealShare
		lows = append(lows, r.Low.P50Ms*own)
		for _, j := range r.Jobs {
			jobs = append(jobs, j.Seconds*own)
		}
	}
	return median(lows) * scale, median(jobs) * scale
}
