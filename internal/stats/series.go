package stats

import (
	"math"

	"repro/internal/sim"
)

// TimeSeries buckets a quantity (bytes, packets) into fixed windows, for
// throughput-over-time plots like Figure 4.14.
type TimeSeries struct {
	window  sim.Time
	buckets []float64
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(window sim.Time) *TimeSeries {
	if window <= 0 {
		panic("stats: NewTimeSeries with non-positive window")
	}
	return &TimeSeries{window: window}
}

// Window returns the bucket width.
func (ts *TimeSeries) Window() sim.Time { return ts.window }

// Add accumulates v into the bucket containing the instant.
func (ts *TimeSeries) Add(at sim.Time, v float64) {
	if at < 0 {
		return
	}
	idx := int(at / ts.window)
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += v
}

// Buckets returns the raw bucket values.
func (ts *TimeSeries) Buckets() []float64 { return ts.buckets }

// Point is one (time, value) pair of a rendered series.
type Point struct {
	At    sim.Time
	Value float64
}

// Rate converts the buckets into per-second rates, stamped at each
// bucket's start.
func (ts *TimeSeries) Rate() []Point {
	scale := float64(sim.Second) / float64(ts.window)
	out := make([]Point, len(ts.buckets))
	for i, v := range ts.buckets {
		out[i] = Point{At: sim.Time(i) * ts.window, Value: v * scale}
	}
	return out
}

// SeqSample is one (time, sequence-number) event for TCP sequence traces
// (Figures 4.12/4.13).
type SeqSample struct {
	At  sim.Time
	Seq uint64
}

// seqChunkLen is the number of samples one SeqTrace chunk holds.
const seqChunkLen = 512

// seqChunk is one fixed-size block of a SeqTrace; chunks form a list in
// recording order.
type seqChunk struct {
	samples [seqChunkLen]SeqSample
	next    *seqChunk
}

// SeqTrace records sequence-number events over time. Samples live in
// fixed chunks of 512, so recording never copies earlier samples and
// allocates once per chunk.
type SeqTrace struct {
	head, tail *seqChunk
	n          int
}

// Record appends one event.
func (tr *SeqTrace) Record(at sim.Time, seq uint64) {
	i := tr.n % seqChunkLen
	if i == 0 {
		c := new(seqChunk)
		if tr.tail == nil {
			tr.head = c
		} else {
			tr.tail.next = c
		}
		tr.tail = c
	}
	tr.tail.samples[i] = SeqSample{At: at, Seq: seq}
	tr.n++
}

// each calls fn on every event in recording order until fn returns false.
func (tr *SeqTrace) each(fn func(SeqSample) bool) {
	left := tr.n
	for c := tr.head; c != nil; c = c.next {
		k := min(left, seqChunkLen)
		for _, s := range c.samples[:k] {
			if !fn(s) {
				return
			}
		}
		left -= k
	}
}

// Samples returns a copy of the recorded events in order.
func (tr *SeqTrace) Samples() []SeqSample {
	out := make([]SeqSample, 0, tr.n)
	tr.each(func(s SeqSample) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Window returns a copy of the events with lo ≤ At ≤ hi, in order, or
// nil when there are none.
func (tr *SeqTrace) Window(lo, hi sim.Time) []SeqSample {
	in := func(s SeqSample) bool { return s.At >= lo && s.At <= hi }
	n := 0
	tr.each(func(s SeqSample) bool {
		if in(s) {
			n++
		}
		return true
	})
	if n == 0 {
		return nil
	}
	out := make([]SeqSample, 0, n)
	tr.each(func(s SeqSample) bool {
		if in(s) {
			out = append(out, s)
		}
		return true
	})
	return out
}

// FirstAfter returns the first event with At > t; ok is false when no
// event is later than t.
func (tr *SeqTrace) FirstAfter(t sim.Time) (first SeqSample, ok bool) {
	tr.each(func(s SeqSample) bool {
		if s.At > t {
			first, ok = s, true
		}
		return !ok
	})
	return first, ok
}

// Len returns the number of events.
func (tr *SeqTrace) Len() int { return tr.n }

// Summary accumulates scalar samples (e.g. one metric across seeds) and
// reports mean and standard deviation.
type Summary struct {
	n    int
	sum  float64
	sum2 float64
	min  float64
	max  float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sum2 += v * v
}

// N returns the sample count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (zero when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// StdDev returns the population standard deviation (zero when fewer than
// two samples).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sum2/float64(s.n) - m*m
	if v < 0 {
		v = 0 // numerical noise
	}
	return math.Sqrt(v)
}

// Min and Max return the extremes (zero when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample.
func (s *Summary) Max() float64 { return s.max }

// SampleStdDev returns the Bessel-corrected (n−1) sample standard
// deviation — the estimator confidence intervals are built from. Zero with
// fewer than two samples.
func (s *Summary) SampleStdDev() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sum2 - float64(s.n)*m*m) / float64(s.n-1)
	if v < 0 {
		v = 0 // numerical noise
	}
	return math.Sqrt(v)
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean: 1.96·s/√n with the sample standard deviation.
// Replica counts here are usually ≥ 30, where the normal approximation to
// the t distribution is within a couple of percent. Zero with fewer than
// two samples.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.SampleStdDev() / math.Sqrt(float64(s.n))
}
