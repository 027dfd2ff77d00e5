package main

import (
	"runtime"
	"time"
)

// Host-speed calibration. The shared hosts this benchmark runs on change
// speed by tens of percent over seconds to minutes (a fixed simulator run
// has been seen to take anywhere from 0.59 s to 1.05 s within six minutes).
// The benchmark therefore times a fixed calibration unit between runs,
// written here and independent of the simulator, so that no change to the
// simulator can move it. It reports the time metrics scaled by
// calRefSeconds / (median unit time of this process): seconds on a host
// where one unit takes calRefSeconds. Over 25-second windows this scaling
// cut the spread of a fixed run's median time from 31% to 7%.

// calRefSeconds is the unit's time on the reference host, a 2-vCPU
// Intel Xeon VM at rest; it only sets the scale of the reported seconds.
const calRefSeconds = 0.018

// calEvents is the unit's size: events of a binary-heap event loop that
// also hashes into a map and allocates small buffers, like the simulator.
const calEvents = 100_000

var calSink int

// calibrationUnit runs one unit and returns its wall and CPU seconds.
func calibrationUnit() (wall, cpu float64) {
	type event struct{ at, id uint64 }
	c0 := cpuSeconds()
	t0 := time.Now()
	heap := make([]event, 0, 2048)
	push := func(e event) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() event {
		e := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && heap[r].at < heap[m].at {
				m = r
			}
			if heap[i].at <= heap[m].at {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return e
	}
	seen := make(map[uint64]uint64, 1<<14)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := uint64(0); i < 2048; i++ {
		push(event{at: next() % 1000, id: i})
	}
	var bufs [][]byte
	for k := 0; k < calEvents; k++ {
		e := pop()
		r := next()
		seen[r&0x3fff] += e.at
		if k%64 == 0 {
			bufs = append(bufs, make([]byte, 256))
			if len(bufs) > 512 {
				bufs = bufs[:0]
			}
		}
		push(event{at: e.at + 1 + r%500, id: e.id})
	}
	calSink += len(seen) + len(bufs)
	runtime.KeepAlive(bufs)
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// calibration accumulates unit timings through a process.
type calibration struct{ walls, cpus []float64 }

// units repeats the unit until budget has passed, at least once.
func (c *calibration) units(budget time.Duration) {
	start := time.Now()
	for {
		w, u := calibrationUnit()
		c.walls, c.cpus = append(c.walls, w), append(c.cpus, u)
		if time.Since(start) >= budget {
			return
		}
	}
}

// wallScale and cpuScale turn this host's seconds into reference seconds.
func (c *calibration) wallScale() float64 { return ratio(calRefSeconds, median(c.walls)) }
func (c *calibration) cpuScale() float64  { return ratio(calRefSeconds, median(c.cpus)) }
