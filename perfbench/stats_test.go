package main

import (
	"errors"
	"testing"
	"time"
)

func TestQuantileReportsSampleCount(t *testing.T) {
	s := &sample{}
	if v, n := s.quantile(0.5); v != 0 || n != 0 {
		t.Fatalf("empty sample: got (%v, %d), want (0, 0)", v, n)
	}
	for i := 100; i >= 1; i-- { // out of order on purpose
		s.add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 50}, // nearest rank: ceil(0.5*100) = 50th value
		{0.9, 90},
		{0.99, 99},
		{1, 100},
		{0, 1},
	}
	for _, c := range cases {
		v, n := s.quantile(c.q)
		if v != c.want || n != 100 {
			t.Errorf("quantile(%v) = (%v, %d), want (%v, 100)", c.q, v, n, c.want)
		}
	}
	if s.v[0] != 100 {
		t.Error("quantile reordered the sample it read")
	}
	small := &sample{}
	for _, x := range []float64{3, 1, 2} {
		small.add(x)
	}
	if v, n := small.quantile(0.99); v != 3 || n != 3 {
		t.Errorf("p99 of 3 samples = (%v, %d), want the maximum with n=3", v, n)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var a tally
	a.ok()
	a.check(nil)
	a.check(errors.New("wrong etag"))
	a.fail("status 500")
	if a.attempted != 4 || a.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 2", a.attempted, a.failed)
	}
	if got := a.ratio(); got != 0.5 {
		t.Errorf("ratio = %v, want 0.5", got)
	}
	var b tally
	for i := 0; i < 10; i++ {
		b.fail("x")
	}
	a.merge(&b)
	if a.attempted != 14 || a.failed != 12 {
		t.Errorf("after merge attempted=%d failed=%d, want 14 and 12", a.attempted, a.failed)
	}
	if len(a.reasons) != keepReasons || a.reasons[0] != "wrong etag" {
		t.Errorf("reasons = %q, want the first %d kept", a.reasons, keepReasons)
	}
	var empty tally
	if empty.ratio() != 0 {
		t.Error("ratio of nothing attempted should be 0")
	}
}

// fakeClock advances only when told to; SleepUntil jumps forward.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestPacerTimesFromDueAndReportsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := &pacer{clk: clk, start: clk.now}
	// Operations are due every 10ms. The second one stalls for 35ms,
	// so the third and fourth start late and their latency, timed from
	// when they were due, includes the wait.
	service := []time.Duration{2 * time.Millisecond, 35 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	var lat []time.Duration
	for i, d := range service {
		lat = append(lat, p.run(time.Duration(i)*10*time.Millisecond, func() time.Time {
			clk.now = clk.now.Add(d)
			return clk.now
		}))
	}
	// Op 1 due at 10ms ends at 45ms; op 2 due 20ms starts 45, ends 47;
	// op 3 due 30ms starts 47, ends 49; op 4 due 40ms starts 49, ends 51.
	wantLat := []time.Duration{2, 35, 27, 19, 11}
	wantLate := []float64{0, 0, 25, 17, 9}
	for i := range service {
		if lat[i] != wantLat[i]*time.Millisecond {
			t.Errorf("op %d latency = %v, want %vms", i, lat[i], wantLat[i])
		}
		if p.late.v[i] != wantLate[i] {
			t.Errorf("op %d lateness = %vms, want %vms", i, p.late.v[i], wantLate[i])
		}
	}
	if p99, n := p.late.quantile(0.99); p99 != 25 || n != 5 {
		t.Errorf("lateness p99 = (%v, %d), want (25, 5)", p99, n)
	}
}

func TestPacerNeverStartsEarly(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	p := &pacer{clk: clk, start: clk.now}
	var started time.Time
	p.run(50*time.Millisecond, func() time.Time { started = clk.now; return clk.now })
	if want := time.Unix(0, 0).Add(50 * time.Millisecond); !started.Equal(want) {
		t.Errorf("op started at %v, want its due time %v", started, want)
	}
}
