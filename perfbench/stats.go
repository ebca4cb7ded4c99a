package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sample collects one metric's observations; quantiles are read once,
// after the run, so adding stays an append.
type sample struct {
	v []float64
}

func (s *sample) add(x float64) { s.v = append(s.v, x) }

func (s *sample) addAll(o *sample) { s.v = append(s.v, o.v...) }

func (s *sample) n() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile together with the
// number of samples it was read from, so no percentile is ever
// reported without its base. An empty sample yields (0, 0).
func (s *sample) quantile(q float64) (float64, int) {
	n := len(s.v)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n
}

func (s *sample) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t / float64(len(s.v))
}

func (s *sample) sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

// tally counts operations and the ones that failed a correctness
// check; the first few failure reasons are kept for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

const keepReasons = 5

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < keepReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// check records one operation: a nil error is a success.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(err.Error())
		return
	}
	t.ok()
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < keepReasons {
			t.reasons = append(t.reasons, r)
		}
	}
}

func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// clock abstracts time for the open-loop pacer so its accounting can
// be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// pacer drives an open loop: every operation has a due time fixed in
// advance, independent of how long earlier operations took. Latency is
// measured from the due time, so a stall is charged to every
// operation queued behind it; lateness is how far behind schedule the
// generator itself started each operation.
type pacer struct {
	clk   clock
	start time.Time
	late  sample // ms
}

// run waits until offset after the pacer's start, calls op, and
// returns the operation's latency measured from its due time to the
// completion time op reports (op may do untimed work after it).
func (p *pacer) run(offset time.Duration, op func() time.Time) time.Duration {
	due := p.start.Add(offset)
	p.clk.SleepUntil(due)
	late := p.clk.Now().Sub(due)
	if late < 0 {
		late = 0
	}
	p.late.add(ms(late))
	return op().Sub(due)
}

// processCPU returns the CPU time the process has used, user and
// system, across all its threads. Time the host of a virtual machine
// gives to other guests (steal) is not charged to it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
