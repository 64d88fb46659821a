package main

import (
	"time"

	"repro/internal/covering"
	"repro/internal/search"
)

// seqWorkload is seq-pyrim: the plain sequential covering algorithm,
// covering.Learn with the serial coverer, no transport of any kind.
func seqWorkload() learnWorkload {
	return learnWorkload{
		rep: func(t *task) (*repResult, error) {
			ds := t.ds
			ex := search.NewExamples(t.fold.TrainPos, t.fold.TrainNeg)
			var res *covering.Result
			wall, cpu, err := measure(func() (err error) {
				res, err = covering.Learn(ds.KB, ex, ds.Modes, covering.Config{Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget})
				return err
			})
			if err != nil {
				return nil, err
			}
			return &repResult{
				out:    outcome{TheorySHA: theorySHA(res.Theory), Inferences: res.Inferences},
				theory: res.Theory, wall: wall, cpu: cpu,
			}, nil
		},
		// The traced repetition is the whole covering loop replayed from its
		// public parts: it must learn the same theory with the same work, so
		// bottom + search + coverage self times account for the learn call.
		traced: func(t *task, tr *tracer) (*repResult, func(*metricSet), error) {
			sh, err := shadowCovering(t, tr, 1, 0)
			if err != nil {
				return nil, nil, err
			}
			return &sh.res, sh.record, nil
		},
		// Here the traced repetition is the replayed loop, so the tracing
		// overhead is also what replaying costs over covering.Learn itself.
		probes: func(_ *task, _ *tracer, ms *metricSet, _ time.Duration, _ *repResult) error {
			ms.set("covering.shadow_overhead_pct", ms.get("bench.trace_overhead_pct"))
			return nil
		},
	}
}
