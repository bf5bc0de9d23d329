package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The recording box is a small VM whose hypervisor takes the CPU away in
// bursts: the same op measured 105 ms in a calm second and 200 ms in a
// stolen one, and whole runs came out up to three times as slow as their
// neighbours. The kernel counts that time (the steal column of
// /proc/stat), so the timed window is cut into slices, each with the busy
// and the stolen CPU time it saw, and the end-to-end metrics allow for it:
// latency is taken from the slices without steal, and throughput counts
// each slice as long as it would have been with none. On a machine that
// reports no steal the metrics are the plain median and ops ÷ window.

// slice is one stretch of the timed window, with the VM's CPU time over
// all CPUs in clock ticks.
type slice struct {
	from, to time.Duration // offsets from the window's start
	busy     int64         // ticks spent running: user, nice, system, irq, softirq
	steal    int64         // ticks runnable but withheld by the hypervisor
}

func (s slice) len() time.Duration { return s.to - s.from }

// unstolen is how long the slice would have been without steal: stolen
// time delays whatever was runnable, so the slice shrinks by steal's share
// of the time its CPUs were wanted.
func (s slice) unstolen() time.Duration {
	if s.steal <= 0 || s.busy < 0 {
		return s.len()
	}
	return time.Duration(float64(s.len()) * float64(s.busy) / float64(s.busy+s.steal))
}

// sliceLen is long against a GC cycle and an op, so that a slice holds
// its share of both, and short against a burst of steal.
const sliceLen = 250 * time.Millisecond

// calmShare is the least part of the window the metrics may rest on. With
// fewer steal-free slices than that, the least-stolen slices make it up.
const calmShare = 0.25

// sampler cuts slices while a window runs.
type sampler struct {
	stop, done chan struct{}
	slices     []slice
}

func startSampler(began time.Time) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		from := time.Duration(0)
		busy0, steal0 := readCPU()
		cut := func() {
			now := time.Since(began)
			busy, steal := readCPU()
			s.slices = append(s.slices, slice{from, now, busy - busy0, steal - steal0})
			from, busy0, steal0 = now, busy, steal
		}
		for {
			select {
			case <-s.stop:
				cut()
				return
			case <-tick.C:
				cut()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the slices, which tile the time
// from the window's start to now.
func (s *sampler) finish() []slice {
	close(s.stop)
	<-s.done
	return s.slices
}

// readCPU returns the VM's busy and stolen ticks since boot, zeros where
// the platform has no such counters.
func readCPU() (busy, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	tick := func(i int) int64 {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		return n
	}
	return tick(1) + tick(2) + tick(3) + tick(6) + tick(7), tick(8)
}

// calm marks the slices to measure from: those without steal, or, when
// they cover less than calmShare of the window, the least-stolen ones up
// to that share.
func calm(slices []slice) []bool {
	pick := make([]bool, len(slices))
	var total, free time.Duration
	for i, s := range slices {
		total += s.len()
		if s.steal == 0 {
			pick[i] = true
			free += s.len()
		}
	}
	need := time.Duration(calmShare * float64(total))
	if free >= need {
		return pick
	}
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(slices[i].steal) / float64(max(slices[i].len(), 1)) }
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) < rate(order[b]) })
	for _, i := range order {
		if free >= need {
			break
		}
		if !pick[i] {
			pick[i] = true
			free += slices[i].len()
		}
	}
	return pick
}

// calmLatencies returns the latencies of the ops that began and ended in
// picked slices.
func calmLatencies(t tally, slices []slice, pick []bool) []float64 {
	at := func(offset float64) int { // the slice holding an offset in ms
		d := time.Duration(offset * float64(time.Millisecond))
		i := sort.Search(len(slices), func(i int) bool { return slices[i].to >= d })
		return min(i, len(slices)-1)
	}
	var lat []float64
	for i, end := range t.end {
		if pick[at(end)] && pick[at(end-t.lat[i])] {
			lat = append(lat, t.lat[i])
		}
	}
	return lat
}
