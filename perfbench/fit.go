package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/forecast"
	"repro/internal/metrics"
)

const (
	setupReps = 9  // set-ups per run, at least; setup_s is their median
	minFits   = 3  // timed fits (streaming sessions) per run, at least
	predReps  = 20 // PredictDataset calls per fit; predict_us is their median
	rounds    = 5  // Append + refit rounds per streaming session
)

// bench is one run: a workload, its seed-derived inputs and, for the
// remote workload, the shard servers.
type bench struct {
	w    *workload
	seed int64
	in   *inputs
	srv  *servers
	ctx  context.Context
	// attempted and failed count fits, rounds, checks and traced runs.
	attempted, failed int
}

// fail records a failed operation and says why on standard output.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Printf("# FAILED: "+format+"\n", args...)
}

// addrs returns the shard server addresses (nil without servers).
func (b *bench) addrs() []string {
	if b.srv == nil {
		return nil
	}
	return b.srv.addrs
}

// setup builds the inputs and, for the remote workload, starts the
// shard servers, replacing any earlier ones; it ends with forecast.New,
// the facade's own set-up, and returns how long all of it took. The
// untraced run sets up once before each fit, so that its set-up
// samples spread over the whole run like its fits do.
func (b *bench) setup() (time.Duration, error) {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	runtime.GC() // no set-up pays for the garbage of what ran before
	start := time.Now()
	in, err := b.w.build(b.seed)
	if err != nil {
		return 0, fmt.Errorf("build %s inputs: %w", b.w.name, err)
	}
	if b.w.remote {
		if b.srv, err = startServers(2); err != nil {
			return 0, err
		}
	}
	if _, err := forecast.New(b.w.options(b.seed, b.addrs())...); err != nil {
		return 0, fmt.Errorf("configure %s: %w", b.w.name, err)
	}
	d := time.Since(start)
	b.in = in
	return d, nil
}

// fitResult is one timed facade fit.
type fitResult struct {
	f       *forecast.Forecaster
	wall    time.Duration
	gens    int
	allocMB float64
	digest  string
}

// fit configures a Forecaster and fits it on a fresh training set.
// The caller closes the returned Forecaster.
func (b *bench) fit(opts []forecast.Option) (*fitResult, error) {
	f, err := forecast.New(opts...)
	if err != nil {
		return nil, err
	}
	ds, err := b.in.trainSet(b.w)
	if err != nil {
		return nil, err
	}
	// Start every fit from a collected heap, so no fit pays for the
	// garbage of the one before it.
	runtime.GC()
	a0 := totalAlloc()
	start := time.Now()
	err = f.Fit(b.ctx, ds)
	wall := time.Since(start)
	alloc := totalAlloc() - a0
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fit: %w", err)
	}
	d, err := digest(f.RuleSet())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fitResult{f: f, wall: wall, gens: f.Stats().Generations, allocMB: float64(alloc) / (1 << 20), digest: d}, nil
}

// predict times PredictDataset on the held-out set predReps times and
// returns the median, plus the held-out NMSE and coverage.
func (b *bench) predict(f *forecast.Forecaster) (us, nmse, coverage float64) {
	var times []float64
	var pred []float64
	var mask []bool
	runtime.GC()
	for i := 0; i < predReps; i++ {
		start := time.Now()
		pred, mask = f.PredictDataset(b.in.test)
		times = append(times, micros(time.Since(start)))
	}
	nmse, coverage, err := metrics.MaskedNMSE(pred, b.in.test.Targets, mask)
	if err != nil {
		nmse = 0 // nothing covered: reported as coverage 0
	}
	return median(times), nmse, coverage
}

// samples collects one run's untraced measurements.
type samples struct {
	setup, fit, gensPerS, round, alloc, predict []float64
	nmse, coverage                              float64
	digest                                      string // every fit or session must reproduce it
}

// measure runs the untraced workload for the given time, each time set
// up afresh: whole fits on the fit workloads, streaming sessions on
// venice24-stream.
func (b *bench) measure(measure time.Duration) (*samples, error) {
	s := &samples{}
	var deadline time.Time
	for n := 0; n < minFits || len(s.setup) < setupReps || time.Now().Before(deadline); n++ {
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, seconds(d))
		if n == 0 {
			deadline = time.Now().Add(measure)
		} else if n >= minFits && !time.Now().Before(deadline) {
			continue // only set-up samples are missing
		}
		if b.w.stream {
			err = b.session(s)
		} else {
			err = b.fitSample(s)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fitSample times one whole fit and its held-out prediction.
func (b *bench) fitSample(s *samples) error {
	b.attempted++
	r, err := b.fit(b.w.options(b.seed, b.addrs()))
	if err != nil {
		b.fail("%s fit: %v", b.w.name, err)
		return nil
	}
	defer r.f.Close()
	s.fit = append(s.fit, seconds(r.wall))
	s.round = append(s.round, seconds(r.wall))
	s.gensPerS = append(s.gensPerS, float64(r.gens)/seconds(r.wall))
	s.alloc = append(s.alloc, r.allocMB)
	us, nmse, cov := b.predict(r.f)
	s.predict = append(s.predict, us)
	if s.digest == "" {
		s.digest, s.nmse, s.coverage = r.digest, nmse, cov
		b.verify(r.f)
	} else if r.digest != s.digest {
		b.fail("%s fit digest %s differs from the run's first fit %s", b.w.name, r.digest, s.digest)
	}
	return nil
}

// verify re-derives the fitted rules from the Forecaster's training
// window (one checked operation).
func (b *bench) verify(f *forecast.Forecaster) {
	b.attempted++
	if err := verifyRules(f.RuleSet(), f.Data()); err != nil {
		b.fail("%s rule check: %v", b.w.name, err)
	}
}

// session runs one streaming session: Fit on the first window, then
// rounds Append + refit rounds, one per chunk of new hours. Every
// session repeats the same work, so all of them must produce the same
// digest chain.
func (b *bench) session(s *samples) error {
	b.attempted++
	a0 := totalAlloc()
	r, err := b.fit(b.w.options(b.seed, nil))
	if err != nil {
		b.fail("%s fit: %v", b.w.name, err)
		return nil
	}
	defer r.f.Close()
	s.fit = append(s.fit, seconds(r.wall))
	s.gensPerS = append(s.gensPerS, float64(r.gens)/seconds(r.wall))
	us, nmse, cov := b.predict(r.f)
	s.predict = append(s.predict, us)
	d, err := b.rounds(r, func(wall time.Duration) { s.round = append(s.round, seconds(wall)) })
	if err != nil {
		b.fail("%s: %v", b.w.name, err)
		return nil
	}
	s.alloc = append(s.alloc, float64(totalAlloc()-a0)/(1<<20))
	if s.digest == "" {
		s.digest, s.nmse, s.coverage = d, nmse, cov
		b.verify(r.f)
	} else if d != s.digest {
		b.fail("%s session digest %s differs from the run's first session %s", b.w.name, d, s.digest)
	}
	return nil
}

// rounds runs a fitted streaming Forecaster through its Append + refit
// rounds, reporting each round's wall time, and returns the digest
// chain of the fit and every round.
func (b *bench) rounds(r *fitResult, each func(time.Duration)) (string, error) {
	digests := []string{r.digest}
	for k := 0; k < rounds; k++ {
		inputs, targets := b.in.chunk(k)
		b.attempted++
		start := time.Now()
		if err := r.f.Append(b.ctx, inputs, targets); err != nil {
			return "", fmt.Errorf("round %d: %w", k, err)
		}
		each(time.Since(start))
		d, err := digest(r.f.RuleSet())
		if err != nil {
			return "", err
		}
		digests = append(digests, d)
	}
	return chain(digests), nil
}

// checkReference compares the run's digest with the recorded one for
// this seed or, for a seed without a record, with a fit through the
// independent reference path.
func (b *bench) checkReference(got string) error {
	b.attempted++
	want, ok := reference(b.w, b.seed)
	if !ok {
		var err error
		if want, err = b.referenceDigest(); err != nil {
			return err
		}
	}
	if got != want {
		b.fail("%s seed %d: digest %s, reference %s (recorded: %v)", b.w.name, b.seed, got, want, ok)
	}
	return nil
}

// referenceDigest fits through the workload's reference path.
func (b *bench) referenceDigest() (string, error) {
	opts := b.w.referenceOptions(b.seed)
	r, err := b.fit(opts)
	if err != nil {
		return "", fmt.Errorf("reference fit: %w", err)
	}
	defer r.f.Close()
	if b.w.stream {
		return b.rounds(r, func(time.Duration) {})
	}
	return r.digest, nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
