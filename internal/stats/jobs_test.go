package stats

import (
	"math"
	"testing"

	"ofar/internal/simcore"
)

func jobRun() *Run {
	r := NewRun(20, 8)
	r.EnableJobs([]string{"a", "b", "bg"}, []int{8, 8, 4})
	return r
}

func TestJobCountersAndWindow(t *testing.T) {
	r := jobRun()
	// Pre-window traffic counts toward lifetime totals only.
	r.Generated += 2
	r.JobGenerated(0)
	r.JobGenerated(1)
	r.Delivered++
	r.JobDelivered(0, 50)
	if r.JobMeasured(0) != 0 {
		t.Fatal("pre-window delivery entered the measurement window")
	}

	r.StartMeasurement(100)
	for i := 0; i < 4; i++ {
		r.Generated++
		r.JobGenerated(0)
		r.Delivered++
		r.JobDelivered(0, int64(10*(i+1)))
	}
	r.Generated++
	r.JobGenerated(1)
	r.Dropped++
	r.JobDropped(1)

	g, d, dr := r.JobCounts(0)
	if g != 5 || d != 5 || dr != 0 {
		t.Errorf("job a counts %d/%d/%d, want 5/5/0", g, d, dr)
	}
	g, d, dr = r.JobCounts(1)
	if g != 2 || d != 0 || dr != 1 {
		t.Errorf("job b counts %d/%d/%d, want 2/0/1", g, d, dr)
	}
	if r.JobMeasured(0) != 4 {
		t.Errorf("job a measured %d, want 4", r.JobMeasured(0))
	}
	if got := r.JobAvgLatency(0); got != 25 {
		t.Errorf("job a avg latency %v, want 25", got)
	}
	if !math.IsNaN(r.JobAvgLatency(1)) {
		t.Errorf("job b avg latency %v, want NaN (nothing measured)", r.JobAvgLatency(1))
	}
	if thr := r.JobThroughput(0, 200); thr != 4.0*8/8/100 {
		t.Errorf("job a throughput %v, want 0.04", thr)
	}
	if err := r.CheckJobConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
	// Untagged packets (slot -1) must be ignored, not crash or miscount.
	r.JobGenerated(-1)
	r.JobDelivered(-1, 10)
	r.JobDropped(-1)
	if err := r.CheckJobConservation(); err != nil {
		t.Errorf("conservation after untagged events: %v", err)
	}
}

func TestJobConservationDetectsSkew(t *testing.T) {
	r := jobRun()
	r.Generated++ // aggregate moves, no job credited
	if err := r.CheckJobConservation(); err == nil {
		t.Fatal("uncredited generation passed the conservation check")
	}
}

func TestJobStatsSnapshotRoundTrip(t *testing.T) {
	r := jobRun()
	r.StartMeasurement(0)
	for i := 0; i < 10; i++ {
		r.Generated++
		r.JobGenerated(i % 3)
		r.Delivered++
		r.JobDelivered(i%3, int64(5+i))
	}
	r.Dropped++
	r.JobDropped(2)
	r.Generated++
	r.JobGenerated(2)

	var e simcore.Enc
	r.State(simcore.Encoder(&e))

	fresh := jobRun()
	if err := fresh.State(simcore.Decoder(simcore.NewDec(e.Data()))); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < r.Jobs(); j++ {
		g1, d1, dr1 := r.JobCounts(j)
		g2, d2, dr2 := fresh.JobCounts(j)
		if g1 != g2 || d1 != d2 || dr1 != dr2 {
			t.Errorf("slot %d: %d/%d/%d decoded as %d/%d/%d", j, g1, d1, dr1, g2, d2, dr2)
		}
		if r.JobMeasured(j) != fresh.JobMeasured(j) {
			t.Errorf("slot %d: measured %d decoded as %d", j, r.JobMeasured(j), fresh.JobMeasured(j))
		}
		if q1, q2 := r.JobLatencyQuantile(j, 0.99), fresh.JobLatencyQuantile(j, 0.99); q1 != q2 && !(math.IsNaN(q1) && math.IsNaN(q2)) {
			t.Errorf("slot %d: p99 %v decoded as %v", j, q1, q2)
		}
	}
	if err := fresh.CheckJobConservation(); err != nil {
		t.Errorf("decoded state fails conservation: %v", err)
	}
}

func TestJobStatsSnapshotRejectsMismatch(t *testing.T) {
	r := jobRun()
	var e simcore.Enc
	r.State(simcore.Encoder(&e))

	// Fewer slots than the snapshot carries.
	small := NewRun(20, 8)
	small.EnableJobs([]string{"a"}, []int{8})
	if err := small.State(simcore.Decoder(simcore.NewDec(e.Data()))); err == nil {
		t.Error("slot-count mismatch decoded cleanly")
	}
	// Same count, different job names.
	renamed := NewRun(20, 8)
	renamed.EnableJobs([]string{"a", "b", "other"}, []int{8, 8, 4})
	if err := renamed.State(simcore.Decoder(simcore.NewDec(e.Data()))); err == nil {
		t.Error("job-name mismatch decoded cleanly")
	}
	// No job accounting at all.
	plain := NewRun(20, 8)
	if err := plain.State(simcore.Decoder(simcore.NewDec(e.Data()))); err == nil {
		t.Error("job snapshot decoded into a job-less run")
	}
}

func TestJobStatsMeasurementWindowReset(t *testing.T) {
	r := jobRun()
	r.StartMeasurement(0)
	r.Generated++
	r.JobGenerated(0)
	r.Delivered++
	r.JobDelivered(0, 40)
	if r.JobMeasured(0) != 1 {
		t.Fatalf("measured %d, want 1", r.JobMeasured(0))
	}
	r.StartMeasurement(500)
	if r.JobMeasured(0) != 0 {
		t.Errorf("new window starts with %d measured deliveries", r.JobMeasured(0))
	}
	g, d, _ := r.JobCounts(0)
	if g != 1 || d != 1 {
		t.Errorf("lifetime counters reset with the window: %d/%d", g, d)
	}
}
