package main

import (
	"slices"
	"sync"
	"time"
)

// The reference host is a few cores of a shared machine whose speed
// wanders by a factor of 1.3 over seconds to minutes (README, "Seconds at
// the reference host speed"):
// a fixed single-threaded loop takes 10 % more or less from one 10 s
// window to the next, however long the window. Wall-clock times of one
// commit therefore spread by 10-28 % between runs, which no regression
// bound survives. The host clock measures that wandering while the
// workload runs, with arithmetic that belongs to the benchmark and never
// changes, so that the end-to-end times can be stated at one host speed.

const (
	// clockPeriod is how often the host clock takes a sample, and
	// clockElems, clockSweeps size one: four sweeps of a 2 MB array, about
	// 1.1 ms, so ~2.5 % of one of the two CPUs.
	clockPeriod = 50 * time.Millisecond
	clockElems  = 1 << 18
	clockSweeps = 4
	// clockRefSeconds is what one sample takes on the reference host when
	// nothing else contends for it (the fastest tenth of the samples of the
	// calibration runs, README). A slowdown of 1 is that speed.
	clockRefSeconds = 1.0e-3
)

// hostClock samples the host's speed from a goroutine of its own while
// the program under test runs.
type hostClock struct {
	mu   sync.Mutex // guards arr while a sample runs, and at/d
	arr  []float64
	sink float64
	at   []time.Time
	d    []float64 // seconds per sample

	stop, done chan struct{}
	closing    sync.Once
}

func startHostClock() *hostClock {
	c := &hostClock{arr: make([]float64, clockElems), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample() // touch the array's pages before the first sample that counts
	c.at, c.d = nil, nil
	go func() {
		defer close(c.done)
		tick := time.NewTicker(clockPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

// close stops the sampling goroutine and waits for it; a second call
// finds it stopped.
func (c *hostClock) close() {
	c.closing.Do(func() { close(c.stop) })
	<-c.done
}

// sample times the fixed loop once.
func (c *hostClock) sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	a, s := c.arr, 0.0
	for r := 0; r < clockSweeps; r++ {
		for i := range a {
			a[i] = a[i]*0.999 + 0.5
			s += a[i]
		}
	}
	c.sink += s
	c.at = append(c.at, start)
	c.d = append(c.d, time.Since(start).Seconds())
}

// slowdown is the median sample taken between a and b over the reference
// sample: how much slower than unloaded the host ran in that interval.
// An interval too short to hold a sample gets one taken now.
func (c *hostClock) slowdown(a, b time.Time) float64 {
	within := func() []float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		var v []float64
		for i, t := range c.at {
			if !t.Before(a) && t.Before(b) {
				v = append(v, c.d[i])
			}
		}
		return v
	}
	v := within()
	if len(v) == 0 {
		c.sample()
		c.mu.Lock()
		v = c.d[len(c.d)-1:]
		c.mu.Unlock()
	}
	return median(v) / clockRefSeconds
}

// summary is the number of samples taken and, in milliseconds, their
// tenth percentile and median: what clockRefSeconds is calibrated from.
func (c *hostClock) summary() (n int, p10, med float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.d) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(c.d)
	slices.Sort(s)
	return len(s), 1e3 * s[len(s)/10], 1e3 * median(s)
}

// lap is one wall-clock interval with the host's slowdown over it.
type lap struct {
	wall     float64 // seconds
	slowdown float64
}

// atRef is the interval's length at the reference host speed.
func (t lap) atRef() float64 { return t.wall / t.slowdown }
