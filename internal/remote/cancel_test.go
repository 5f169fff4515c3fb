package remote

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// Cancellation and fault semantics: a cancelled context interrupts
// in-flight RPC IO immediately, every client and server goroutine
// drains, nothing from a cancelled batch is cached, and a lost server
// trips the sticky BackendErr that aborts training with a wrapped
// error instead of a hang. CI runs these under -race.

func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
}

func TestMatchBatchPreCancelledLeavesNoGoroutines(t *testing.T) {
	ds := testDataset(t, 2048, 4, false)
	c, _ := newLoopbackCluster(t, 3, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	rules := randomRules(ds, 64, 1)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := c.MatchBatch(ctx, rules)
	if len(out) != len(rules) {
		t.Fatalf("out length %d, want %d (incomplete but shaped)", len(out), len(rules))
	}
	settleGoroutines(t, baseline)

	// The cluster survives: poisoned connections redial (the loopback
	// servers kept their slices) and the same batch completes.
	full := c.MatchBatch(context.Background(), rules)
	if err := c.BackendErr(); err != nil {
		t.Fatalf("cancellation tripped the sticky failure: %v", err)
	}
	for i, m := range full {
		want := c.MatchIndices(rules[i])
		if !intsEqual(m, want) {
			t.Fatalf("rule %d: batch %v, per-rule %v after recovery", i, m, want)
		}
	}
}

func TestMatchBatchCancelledMidwayLeavesNoGoroutines(t *testing.T) {
	ds := testDataset(t, 8192, 4, false)
	c, _ := newLoopbackCluster(t, 4, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	rules := randomRules(ds, 256, 2)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.MatchBatch(ctx, rules)
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MatchBatch did not return after cancellation")
	}
	settleGoroutines(t, baseline)
	if err := c.BackendErr(); err != nil {
		t.Fatalf("cancellation tripped the sticky failure: %v", err)
	}
}

// TestCancelledRemoteBatchCachesNothing: a batch cut short by its
// context neither caches nor applies partial results, mirroring the
// in-process engine's contract over the wire.
func TestCancelledRemoteBatchCachesNothing(t *testing.T) {
	ds := testDataset(t, 1024, 3, false)
	c, _ := newLoopbackCluster(t, 2, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(c.Data(), 0.5, 0, 1e-8, 2, core.EvalOptions{Backend: c})

	rules := randomRules(ds, 32, 3)
	sentinel := -12345.0
	for _, r := range rules {
		r.Fitness = sentinel
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ev.EvaluateAll(ctx, rules); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateAll returned %v, want context.Canceled", err)
	}
	for i, r := range rules {
		if r.Fitness != sentinel {
			t.Fatalf("rule %d was mutated by a cancelled batch (fitness %v)", i, r.Fitness)
		}
	}
	if err := ev.EvaluateAll(context.Background(), rules); err != nil {
		t.Fatal(err)
	}
	if hits, _ := ev.CacheStats(); hits != 0 {
		t.Fatalf("%d cache entries survived a cancelled batch", hits)
	}
}

// TestDroppedServerSurfacesStickyError: when a shard server dies
// mid-life, the next query trips BackendErr, evaluations refuse to
// cache or apply anything, mutations refuse to run, and the training
// loop aborts with an error wrapping ErrTransport — never a hang,
// never silently wrong rules.
func TestDroppedServerSurfacesStickyError(t *testing.T) {
	ds := testDataset(t, 600, 3, false)
	c, loops := newLoopbackCluster(t, 3, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	rules := randomRules(ds, 16, 5)
	c.MatchBatch(context.Background(), rules) // healthy first

	loops[1].Stop()

	out := c.MatchBatch(context.Background(), rules)
	err := c.BackendErr()
	if err == nil {
		t.Fatal("BackendErr is nil after a server died")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("BackendErr %v does not wrap ErrTransport", err)
	}
	_ = out // incomplete by contract; the evaluator refuses it:

	cache := core.NewResultCache()
	ev := core.NewEvaluator(c.Data(), 0.5, 0, 1e-8, 1,
		core.EvalOptions{Backend: c, Cache: cache})
	if evErr := ev.EvaluateAll(context.Background(), cloneAll(rules)); !errors.Is(evErr, ErrTransport) {
		t.Fatalf("EvaluateAll returned %v, want the wrapped transport failure", evErr)
	}
	// A healthy backend at the same data and epoch reads the same
	// keys: it must find nothing the faulted batch computed.
	healthy := core.NewEvaluator(c.Data(), 0.5, 0, 1e-8, 1,
		core.EvalOptions{Backend: frozenEpoch{core.NewMatchIndex(c.Data()), c.Epoch()}, Cache: cache})
	hits0, _ := cache.Stats()
	if err := healthy.EvaluateAll(context.Background(), cloneAll(rules)); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != hits0 {
		t.Fatalf("%d cache entries written against a faulted backend", hits-hits0)
	}
	if appErr := c.Append([][]float64{{1, 2, 3}}, []float64{4}); !errors.Is(appErr, ErrTransport) {
		t.Fatalf("Append returned %v, want the sticky transport failure", appErr)
	}
}

// frozenEpoch is an in-process backend reporting a fixed epoch, so its
// evaluator builds the same cache keys as one over a cluster at that
// epoch.
type frozenEpoch struct {
	*core.MatchIndex
	epoch uint64
}

func (f frozenEpoch) Epoch() uint64 { return f.epoch }

// swallowDialer wraps a transport so the test can blackhole it:
// writes succeed but never reach the server, which therefore never
// answers — a frozen host, not a closed socket.
type swallowDialer struct {
	inner   Dialer
	stalled atomic.Bool
}

func (d *swallowDialer) DialContext(ctx context.Context) (net.Conn, error) {
	nc, err := d.inner.DialContext(ctx)
	if err != nil {
		return nil, err
	}
	return &swallowConn{Conn: nc, stalled: &d.stalled}, nil
}

func (d *swallowDialer) Addr() string { return "blackhole" }

type swallowConn struct {
	net.Conn
	stalled *atomic.Bool
}

func (c *swallowConn) Write(p []byte) (int, error) {
	if c.stalled.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestStalledServerTripsStickyError: a server that stops responding
// WITHOUT closing its connection (blackhole, frozen host) must trip
// the sticky failure within the cluster timeout — never hang a
// MatchBatch issued with a deadline-free context (forecast.Fit's
// common case).
func TestStalledServerTripsStickyError(t *testing.T) {
	ds := testDataset(t, 300, 3, false)
	loop := NewLoopback(NewServer(engine.Options{}))
	bh := &swallowDialer{inner: loop}
	c, err := NewCluster([]Dialer{bh}, Options{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	rules := randomRules(ds, 8, 9)
	c.MatchBatch(context.Background(), rules) // healthy first

	bh.stalled.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.MatchBatch(context.Background(), rules)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MatchBatch hung on a blackholed server")
	}
	if err := c.BackendErr(); !errors.Is(err, ErrTransport) {
		t.Fatalf("BackendErr = %v after a stalled server, want the wrapped transport failure", err)
	}
}

// TestDroppedServerAbortsMultiRun: the whole training loop —
// NewExecution, Run, MultiRun — returns the wrapped transport error
// promptly when a server dies before training starts.
func TestDroppedServerAbortsMultiRun(t *testing.T) {
	ds := testDataset(t, 400, 3, false)
	c, loops := newLoopbackCluster(t, 2, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	loops[0].Stop()

	cfg := core.Default(ds.D)
	cfg.Generations = 1000
	cfg.Runtime.Backend = c

	done := make(chan error, 1)
	go func() {
		_, err := core.MultiRun(context.Background(), core.MultiRunConfig{
			Base: cfg, CoverageTarget: 2, MaxExecutions: 2, Parallelism: 1,
		}, c.Data())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("MultiRun returned %v, want the wrapped transport failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MultiRun hung on a dead server")
	}
}

// TestDroppedServerMidRunAbortsExecution: the server dies while an
// execution is mid-run; the per-generation BackendErr poll stops the
// loop with the wrapped error instead of letting evolution continue
// against truncated matches.
func TestDroppedServerMidRunAbortsExecution(t *testing.T) {
	ds := testDataset(t, 400, 3, false)
	c, loops := newLoopbackCluster(t, 2, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	cfg := core.Default(ds.D)
	cfg.Generations = 1 << 30 // would run ~forever if the fault were ignored
	cfg.Runtime.Backend = c
	ex, err := core.NewExecution(context.Background(), cfg, c.Data())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		for _, l := range loops {
			l.Stop()
		}
	}()
	done := make(chan error, 1)
	go func() { done <- ex.Run(context.Background(), 0, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("Run returned %v, want the wrapped transport failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after its servers died")
	}
}
