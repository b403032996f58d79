package main

import (
	"fmt"
	"sort"
	"time"
)

// latencies collects one operation class's client-side latencies.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// p50 is the median latency in milliseconds.
func (l *latencies) p50() float64 { return median(l.ms) }

// tail is the highest percentile that still has at least tailBeyond
// samples above it: the (tailBeyond+1)-th largest sample. It returns
// the value, the percentile it sits at, and the sample count.
func (l *latencies) tail() (ms, pct float64, n int) {
	n = len(l.ms)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(l.ms)
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1 // too few samples for any such percentile: the maximum
	}
	return s[i], 100 * float64(i+1) / float64(n), n
}

// tailBeyond is the number of samples a reported tail percentile must
// leave above it.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// metric is one named, unit-carrying measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed beside the value, e.g. the tail percentile
}

// metrics is an ordered list of measurements, printed in order.
type metrics []metric

func (ms *metrics) add(name string, v float64, unit string) {
	*ms = append(*ms, metric{Name: name, Value: v, Unit: unit})
}

// addLatency appends <name>_p50_ms and <name>_tail_ms.
func (ms *metrics) addLatency(name string, l *latencies) {
	ms.add(name+"_p50_ms", l.p50(), "ms")
	v, pct, n := l.tail()
	*ms = append(*ms, metric{Name: name + "_tail_ms", Value: v, Unit: "ms",
		Note: fmt.Sprintf("p%.2f of %d samples", pct, n)})
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
