package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPhaseAccounting(t *testing.T) {
	s := NewStats()
	s.SetPhase(Shift)
	s.CountMessage(100)
	s.CountMessage(50)
	s.CountRecv(100)
	s.SetPhase(Reduce)
	s.CountMessage(10)

	if got := s.ByPhase[Shift]; got.Messages != 2 || got.Bytes != 150 || got.RecvMessages != 1 || got.RecvBytes != 100 {
		t.Errorf("shift stats %+v", got)
	}
	if got := s.ByPhase[Reduce]; got.Messages != 1 || got.Bytes != 10 {
		t.Errorf("reduce stats %+v", got)
	}
	var msgs, bytes int64
	for _, ps := range s.ByPhase {
		msgs += ps.Messages
		bytes += ps.Bytes
	}
	if msgs != 3 || bytes != 160 {
		t.Errorf("totals %d/%d", msgs, bytes)
	}
}

func TestTiming(t *testing.T) {
	s := NewStats()
	s.StartTiming()
	s.SetPhase(Compute)
	time.Sleep(5 * time.Millisecond)
	s.SetPhase(Shift)
	s.StopTiming()
	if s.ByPhase[Compute].Time < 2*time.Millisecond {
		t.Errorf("compute time %v too small", s.ByPhase[Compute].Time)
	}
	for _, p := range CommPhases() {
		if p != Shift && s.ByPhase[p].Time != 0 {
			t.Errorf("%v charged %v, never entered", p, s.ByPhase[p].Time)
		}
	}
	// Without timing, SetPhase records nothing.
	s2 := NewStats()
	s2.SetPhase(Compute)
	s2.SetPhase(Shift)
	if s2.ByPhase[Compute].Time != 0 {
		t.Error("untimed stats accumulated time")
	}
}

// TestPhaseTimesSumToWall: phases are charged as differences of
// offsets from one epoch, one monotonic read per switch, so over many
// switches the charges must telescope to the wall time between
// StartTiming and StopTiming — nothing lost between the reading that
// closes one phase and the one that opens the next.
func TestPhaseTimesSumToWall(t *testing.T) {
	s := NewStats()
	t0 := time.Now()
	s.StartTiming()
	for i := 0; i < 20000; i++ {
		s.SetPhase(Phase(i % int(numPhases)))
	}
	time.Sleep(2 * time.Millisecond)
	s.StopTiming()
	wall := time.Since(t0)
	var sum time.Duration
	for _, ps := range s.ByPhase {
		sum += ps.Time
	}
	if diff := (wall - sum).Abs(); float64(diff) > 0.01*float64(wall) {
		t.Errorf("phase times sum to %v over a wall time of %v (off by %v, want within 1%%)", sum, wall, diff)
	}
	// A second timed interval on the same Stats starts a new epoch and
	// adds to the totals.
	s.StartTiming()
	time.Sleep(time.Millisecond)
	s.StopTiming()
	var again time.Duration
	for _, ps := range s.ByPhase {
		again += ps.Time
	}
	if again < sum+time.Millisecond {
		t.Errorf("second interval added %v, want at least 1ms", again-sum)
	}
}

func TestAggregateCriticalPathAndSum(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.SetPhase(Shift)
	a.CountMessage(100)
	b.SetPhase(Shift)
	b.CountMessage(10)
	b.CountMessage(10)
	r := Aggregate([]*Stats{a, b})
	if r.Ranks != 2 {
		t.Errorf("ranks %d", r.Ranks)
	}
	cp := r.CriticalPath[Shift]
	// Max messages = 2 (rank b), max bytes = 100 (rank a).
	if cp.Messages != 2 || cp.Bytes != 100 {
		t.Errorf("critical path %+v", cp)
	}
	if sum := r.Sum[Shift]; sum.Messages != 3 || sum.Bytes != 120 {
		t.Errorf("sum %+v", sum)
	}
	// S sums critical-path events (max sends + max recvs) over the
	// communication phases: 2 sends, no recvs recorded.
	if r.S() != 2 {
		t.Errorf("S = %d, want 2", r.S())
	}
	if r.W() != 100 {
		t.Errorf("W = %d, want 100", r.W())
	}
}

func TestReportString(t *testing.T) {
	s := NewStats()
	s.SetPhase(Broadcast)
	s.CountMessage(10)
	r := Aggregate([]*Stats{s})
	out := r.String()
	if !strings.Contains(out, "broadcast") || !strings.Contains(out, "S/W") {
		t.Errorf("report rendering:\n%s", out)
	}
	// Phases with no activity are omitted.
	if strings.Contains(out, "reassign") {
		t.Errorf("idle phase rendered:\n%s", out)
	}
	// The footer labels S and W explicitly and includes both imbalance
	// figures (per-rank compute, per-worker), each on its own aligned
	// line.
	for _, want := range []string{"S (critical-path msg events)", "W (critical-path bytes)", "compute imbalance", "per-worker imbalance"} {
		if !strings.Contains(out, want) {
			t.Errorf("footer missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 6 {
		t.Fatalf("report too short:\n%s", out)
	}
	if !strings.HasSuffix(lines[len(lines)-4], " 1") { // S = 1 send event
		t.Errorf("S footer line %q should end with the value 1", lines[len(lines)-4])
	}
	if !strings.HasSuffix(lines[len(lines)-2], "1.000") { // no timing: neutral imbalance
		t.Errorf("imbalance footer line %q should end with 1.000", lines[len(lines)-2])
	}
	if !strings.HasSuffix(lines[len(lines)-1], "1.000") { // no pool ran: neutral worker imbalance
		t.Errorf("worker imbalance footer line %q should end with 1.000", lines[len(lines)-1])
	}
	// A driver that stamps the force-kernel implementation gets it as the
	// last footer line; an unstamped report (above) has no such line.
	r.KernelImpl = "avx2"
	stamped := strings.Split(strings.TrimRight(r.String(), "\n"), "\n")
	if last := stamped[len(stamped)-1]; len(stamped) != len(lines)+1 || !strings.Contains(last, "force kernel") || !strings.HasSuffix(last, " avx2") {
		t.Errorf("stamped report should end with the force kernel line, got %q", last)
	}
	// A run that spanned OS processes says what went over the sockets.
	r.SocketFrames, r.SocketFlushes = 6400, 458
	if out := r.String(); !strings.Contains(out, "socket  6400 frames in 458 flushes\n") {
		t.Errorf("socket line missing:\n%s", out)
	}
}

// TestWorkerImbalance checks the rank×worker lane aggregation: lanes
// from every rank pool into one max/mean figure, and zero-lane reports
// stay neutral.
func TestWorkerImbalance(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.AddWorkerCompute(0, 3*time.Second)
	a.AddWorkerCompute(1, time.Second)
	b.AddWorkerCompute(0, 2*time.Second)
	b.AddWorkerCompute(1, 2*time.Second)
	r := Aggregate([]*Stats{a, b})
	// max 3s over mean (3+1+2+2)/4 = 2s.
	if got := r.WorkerImbalance(); got != 1.5 {
		t.Errorf("worker imbalance = %g, want 1.5", got)
	}
	if r.WorkerLanes != 4 {
		t.Errorf("worker lanes = %d, want 4", r.WorkerLanes)
	}
	// Repeated stamping accumulates per lane.
	a.AddWorkerCompute(1, 2*time.Second)
	if a.WorkerCompute[1] != 3*time.Second {
		t.Errorf("lane accumulation = %v", a.WorkerCompute[1])
	}
	// No pool ran: neutral figure.
	if got := Aggregate([]*Stats{NewStats()}).WorkerImbalance(); got != 1 {
		t.Errorf("poolless worker imbalance = %g, want 1", got)
	}
}

func TestPhaseNames(t *testing.T) {
	names := PhaseNames()
	if len(names) != 7 || names[0] != "compute" || names[6] != "other" {
		t.Errorf("PhaseNames = %v", names)
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase should render")
	}
	if len(CommPhases()) != 5 {
		t.Errorf("CommPhases = %v", CommPhases())
	}
}

// TestAggregateEdgeCases pins Aggregate/Imbalance behavior for the
// degenerate inputs: zero ranks, an empty (but non-nil) rank list,
// zero-time phases, and a single rank.
func TestAggregateEdgeCases(t *testing.T) {
	// Zero ranks, nil and empty.
	for _, ranks := range [][]*Stats{nil, {}} {
		r := Aggregate(ranks)
		if r.Ranks != 0 {
			t.Errorf("Aggregate(%v).Ranks = %d, want 0", ranks, r.Ranks)
		}
		if r.S() != 0 || r.W() != 0 {
			t.Errorf("empty report S/W = %d/%d, want 0/0", r.S(), r.W())
		}
		for _, p := range Phases() {
			if got := r.Imbalance(p); got != 1 {
				t.Errorf("empty report Imbalance(%v) = %g, want 1", p, got)
			}
		}
	}

	// Zero-time phases with message activity: imbalance stays neutral,
	// counts still aggregate.
	s := NewStats()
	s.SetPhase(Shift)
	s.CountMessage(8)
	r := Aggregate([]*Stats{s})
	if got := r.Imbalance(Shift); got != 1 {
		t.Errorf("zero-time phase imbalance = %g, want 1", got)
	}
	if r.S() != 1 || r.W() != 8 {
		t.Errorf("zero-time phase S/W = %d/%d, want 1/8", r.S(), r.W())
	}

	// Single rank: critical path equals the sum, imbalance is exactly 1.
	one := NewStats()
	one.ByPhase[Compute].Time = 3 * time.Second
	one.SetPhase(Reduce)
	one.CountMessage(100)
	r = Aggregate([]*Stats{one})
	if r.CriticalPath[Reduce] != r.Sum[Reduce] {
		t.Errorf("single rank: critical path %+v != sum %+v", r.CriticalPath[Reduce], r.Sum[Reduce])
	}
	if got := r.ComputeImbalance(); got != 1 {
		t.Errorf("single rank compute imbalance = %g, want 1", got)
	}
}

func TestImbalance(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.ByPhase[Compute].Time = 3 * time.Second
	b.ByPhase[Compute].Time = 1 * time.Second
	r := Aggregate([]*Stats{a, b})
	// max 3s over mean 2s.
	if got := r.ComputeImbalance(); got != 1.5 {
		t.Errorf("imbalance = %g, want 1.5", got)
	}
	// Untouched phase reports neutral balance.
	if got := r.Imbalance(Shift); got != 1 {
		t.Errorf("idle-phase imbalance = %g, want 1", got)
	}
	empty := Aggregate(nil)
	if got := empty.ComputeImbalance(); got != 1 {
		t.Errorf("empty report imbalance = %g", got)
	}
}

func TestPhaseStatsMaxAndAdd(t *testing.T) {
	a := PhaseStats{Messages: 1, Bytes: 10, RecvMessages: 5, RecvBytes: 2, Time: time.Second}
	b := PhaseStats{Messages: 3, Bytes: 5, RecvMessages: 1, RecvBytes: 7, Time: time.Millisecond}
	m := a
	m.Max(b)
	if m.Messages != 3 || m.Bytes != 10 || m.RecvMessages != 5 || m.RecvBytes != 7 || m.Time != time.Second {
		t.Errorf("Max = %+v", m)
	}
	s := a
	s.Add(b)
	if s.Messages != 4 || s.Bytes != 15 || s.Events() != 10 || s.Volume() != 24 {
		t.Errorf("Add = %+v", s)
	}
}

// TestMeasureMatchesAggregate counts one traffic pattern into the ranks'
// Stats and into a comm matrix, as the runtime does, and requires
// Measure of the matrix to be Aggregate of the Stats: the same per-phase
// sums and maxima, so the same S and W. The maxima are per field — rank
// 1 sends the most and rank 2 receives the most — so a definition that
// took the busiest rank's events instead would differ.
func TestMeasureMatchesAggregate(t *testing.T) {
	const ranks = 3
	m := obs.NewCommMatrix(len(PhaseNames()), ranks)
	stats := []*Stats{NewStats(), NewStats(), NewStats()}
	send := func(p Phase, src, dst, bytes int) {
		stats[src].SetPhase(p)
		stats[src].CountMessage(bytes)
		stats[dst].SetPhase(p)
		stats[dst].CountRecv(bytes)
		m.AddCells([]obs.MatrixCell{{Phase: int(p), Src: src, Dst: dst,
			SentMsgs: 1, SentBytes: int64(bytes), RecvMsgs: 1, RecvBytes: int64(bytes)}})
	}
	send(Shift, 1, 2, 100)
	send(Shift, 1, 0, 100)
	send(Shift, 0, 2, 10)
	send(Reduce, 2, 1, 7)
	send(Broadcast, 0, 1, 50)
	// The driver charges each rank's compute time to its row as well.
	for r, d := range []time.Duration{3, 9, 5} {
		stats[r].ByPhase[Compute].Time += d
		m.AddTime(r, int(Compute), d)
	}

	want := Aggregate(stats)
	got := Measure(m)
	if got.Ranks != ranks || got.Sum != want.Sum || got.CriticalPath != want.CriticalPath {
		t.Errorf("Measure = ranks %d, sum %+v, critical path %+v;\nAggregate = sum %+v, critical path %+v",
			got.Ranks, got.Sum, got.CriticalPath, want.Sum, want.CriticalPath)
	}
	if got.S() != want.S() || got.W() != want.W() {
		t.Errorf("Measure S/W = %d/%d, Aggregate %d/%d", got.S(), got.W(), want.S(), want.W())
	}
	if got.ComputeImbalance() != want.ComputeImbalance() || want.ComputeImbalance() <= 1 {
		t.Errorf("Measure compute imbalance %g, Aggregate %g (max 9 over mean 17/3)", got.ComputeImbalance(), want.ComputeImbalance())
	}
	// Shift: max sent 2 (rank 1), max received 2 (rank 2); Reduce 1+1;
	// Broadcast 1+1.
	if want.S() != 8 {
		t.Errorf("S = %d, want 8", want.S())
	}
	for r := 0; r < ranks; r++ {
		if tab := RankTable(m, r); tab != stats[r].ByPhase {
			t.Errorf("rank %d: RankTable %+v, Stats %+v", r, tab, stats[r].ByPhase)
		}
	}
	if e := Measure(nil); e.Ranks != 0 || e.S() != 0 {
		t.Errorf("Measure(nil) = %+v", e)
	}
}
