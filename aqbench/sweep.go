package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	_ "aqueue/internal/experiments" // registers the experiments
	"aqueue/internal/harness"
)

// sweep is the closed-batch workload: the sixteen registered experiments
// with quick parameters, run one after another on one domain through the
// harness registry — what a researcher reproducing the figures waits for.
type sweep struct{ seed uint64 }

func (s *sweep) domains() (int, bool) { return 1, false }

// sweepWarmup are the analytic experiments — no simulated horizon, a few
// tens of milliseconds together — that the set-up runs to warm the
// process before the timed batch. They run again inside the batch.
var sweepWarmup = []string{"fig3", "fig11", "fig12"}

// sweepSetupReps is how many times a pass repeats its set-up; the pass
// reports the median.
const sweepSetupReps = 5

// lookup resolves experiments from the registry.
func lookup(names []string) ([]harness.Experiment, error) {
	exps := make([]harness.Experiment, len(names))
	for i, name := range names {
		e, ok := harness.Get(name)
		if !ok {
			return nil, fmt.Errorf("sweep: experiment %q is not registered", name)
		}
		exps[i] = e
	}
	return exps, nil
}

// setup resolves the batch and warms the process with the analytic
// experiments.
func (s *sweep) setup(params harness.Params) ([]harness.Experiment, error) {
	exps, err := lookup(sweepExperiments)
	if err != nil {
		return nil, err
	}
	warm, err := lookup(sweepWarmup)
	if err != nil {
		return nil, err
	}
	for _, e := range warm {
		if _, err := e.Run(params); err != nil {
			return nil, fmt.Errorf("sweep: warm-up %s: %w", e.Name(), err)
		}
	}
	return exps, nil
}

func (s *sweep) iterate(pr *probe) (iteration, error) {
	// Zero horizon and flow count select each experiment's quick
	// defaults; one domain, cooperative.
	params := harness.Params{Quick: true, Seed: s.seed, Domains: 1}
	var exps []harness.Experiment
	reps := make([]float64, sweepSetupReps)
	wallReps := make([]float64, sweepSetupReps)
	for i := range reps {
		t0, c0 := time.Now(), cpuSeconds()
		var err error
		if exps, err = s.setup(params); err != nil {
			return iteration{}, err
		}
		reps[i], wallReps[i] = cpuSeconds()-c0, time.Since(t0).Seconds()
	}
	pr.beginRun()
	it := iteration{layer: map[string]float64{}, attempted: len(exps)}
	digests := make([]string, len(exps))
	for i, e := range exps {
		t0 := time.Now()
		r, err := e.Run(params)
		it.layer["exp."+e.Name()+"_s"] = time.Since(t0).Seconds()
		if err != nil {
			digests[i] = e.Name() + errorDigest
			continue
		}
		sum := sha256.Sum256([]byte(harness.Fingerprint(r)))
		digests[i] = fmt.Sprintf("%s=%x", e.Name(), sum[:4])
	}
	pr.endRun()
	pr.setupCPU = median(reps)
	pr.setup = time.Duration(median(wallReps) * float64(time.Second))
	it.digest = strings.Join(digests, " ")
	return it, nil
}
