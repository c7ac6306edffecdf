package nbody

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// AutotuneResult records one replication factor's trial.
type AutotuneResult struct {
	C       int
	PerStep time.Duration
	Err     error // non-nil when the factor is infeasible
}

// AutotuneC empirically selects the replication factor, the strategy the
// paper leaves as future work ("c ... can be autotuned at runtime by
// trying multiple factors"): it runs trialSteps timesteps of cfg for
// every feasible candidate c and returns the fastest, together with all
// trial results sorted by c.
//
// Candidates may be nil, in which case every power of two with c² ≤ P
// is tried, whatever the algorithm; those it cannot run at (a c that
// does not divide the teams, one beyond the cutoff window) come back as
// infeasible trials.
func AutotuneC(cfg Config, trialSteps int, candidates []int) (int, []AutotuneResult, error) {
	cfg = cfg.withDefaults()
	if candidates == nil {
		for c := 1; c*c <= cfg.P; c *= 2 {
			candidates = append(candidates, c)
		}
	}
	best, trials, err := autotune(cfg, trialSteps, candidates, "replication factor", func(c *Config, v int) { c.C = v })
	var results []AutotuneResult
	for _, t := range trials {
		results = append(results, AutotuneResult{C: t.value, PerStep: t.perStep, Err: t.err})
	}
	return best, results, err
}

// WorkerTuneResult records one worker-pool width's trial.
type WorkerTuneResult struct {
	Workers int
	PerStep time.Duration
	Err     error // non-nil when the width is infeasible
}

// AutotuneWorkers empirically selects the intra-rank worker-pool width
// the same way AutotuneC selects the replication factor: it runs
// trialSteps timesteps of cfg at every candidate width and returns the
// fastest, together with all trial results sorted by width. Results
// are bitwise-identical across widths (the pool's determinism
// contract), so the choice is purely a speed question — which makes it
// safe to tune on a short prefix of a long run.
//
// Candidates may be nil, in which case the powers of two from 1 up to
// the oversubscription bound GOMAXPROCS/P (always including 1) are
// tried.
func AutotuneWorkers(cfg Config, trialSteps int, candidates []int) (int, []WorkerTuneResult, error) {
	cfg = cfg.withDefaults()
	if candidates == nil {
		bound := runtime.GOMAXPROCS(0) / cfg.P
		for w := 1; w <= bound || w == 1; w *= 2 {
			candidates = append(candidates, w)
		}
	}
	best, trials, err := autotune(cfg, trialSteps, candidates, "worker width", func(c *Config, v int) { c.Workers = v })
	var results []WorkerTuneResult
	for _, t := range trials {
		results = append(results, WorkerTuneResult{Workers: t.value, PerStep: t.perStep, Err: t.err})
	}
	return best, results, err
}

// trial is one candidate value's outcome.
type trial struct {
	value   int
	perStep time.Duration
	err     error // non-nil when the value is infeasible
}

// autotune is the trial loop of the exported autotuners: for every
// candidate it builds cfg with set(&cfg, candidate), advances it one
// untimed step — a simulation's first step grows every retained buffer,
// and over a trial of a few steps that set-up would be most of what is
// timed — then times trialSteps (default 3) more. It returns the fastest
// feasible candidate and every trial sorted by value; what names the
// knob in the error when none is feasible.
func autotune(cfg Config, trialSteps int, candidates []int, what string, set func(*Config, int)) (int, []trial, error) {
	if trialSteps <= 0 {
		trialSteps = 3
	}
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("nbody: no autotune candidates")
	}
	trials := make([]trial, 0, len(candidates))
	best, bestT, found := 0, time.Duration(0), false
	for _, v := range candidates {
		c := cfg
		set(&c, v)
		t := trial{value: v}
		t.perStep, t.err = timeTrial(c, trialSteps)
		trials = append(trials, t)
		if t.err == nil && (!found || t.perStep < bestT) {
			best, bestT, found = v, t.perStep, true
		}
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].value < trials[j].value })
	if !found {
		return 0, trials, fmt.Errorf("nbody: no feasible %s among %v", what, candidates)
	}
	return best, trials, nil
}

// timeTrial returns the per-step wall time of steps timesteps of cfg
// behind one untimed warm-up step.
func timeTrial(cfg Config, steps int) (time.Duration, error) {
	sim, err := New(cfg)
	if err != nil {
		return 0, err
	}
	if err := sim.Run(1); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := sim.Run(steps); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(steps), nil
}
