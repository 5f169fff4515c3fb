package forecast_test

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/remote"
)

// Facade-level coverage of WithRemoteCluster against real TCP
// shard servers on 127.0.0.1: bit-identical fits, streaming, the
// cancellation contract, and loud failure when a server dies.

// killableServer is one live shardserver the test can kill: closing
// the listener stops new dials, closing the recorded connections
// drops in-flight ones — together, a process death.
type killableServer struct {
	addr string
	l    net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func startServer(t *testing.T, opt engine.Options) *killableServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ks := &killableServer{addr: l.Addr().String(), l: l}
	srv := remote.NewServer(opt)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			ks.mu.Lock()
			ks.conns = append(ks.conns, conn)
			ks.mu.Unlock()
			go srv.ServeConn(context.Background(), conn)
		}
	}()
	t.Cleanup(ks.kill)
	return ks
}

func (ks *killableServer) kill() {
	ks.l.Close()
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for _, c := range ks.conns {
		c.Close()
	}
	ks.conns = nil
}

func startCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startServer(t, engine.Options{Shards: 2}).addr
	}
	return addrs
}

func remoteBitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameSystem asserts two fitted rule systems are bit-identical
// rule by rule.
func requireSameSystem(t *testing.T, label string, got, want *forecast.RuleSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rules, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rules {
		g, w := got.Rules[i], want.Rules[i]
		if g.Matches != w.Matches || !remoteBitsEqual(g.Fitness, w.Fitness) ||
			!remoteBitsEqual(g.Error, w.Error) || !remoteBitsEqual(g.Prediction, w.Prediction) {
			t.Fatalf("%s: rule %d diverges: got {m=%d f=%v e=%v p=%v}, want {m=%d f=%v e=%v p=%v}",
				label, i, g.Matches, g.Fitness, g.Error, g.Prediction, w.Matches, w.Fitness, w.Error, w.Prediction)
		}
		for j := range w.Cond {
			gc, wc := g.Cond[j], w.Cond[j]
			if gc.Wildcard != wc.Wildcard ||
				(!gc.Wildcard && (!remoteBitsEqual(gc.Lo, wc.Lo) || !remoteBitsEqual(gc.Hi, wc.Hi))) {
				t.Fatalf("%s: rule %d gene %d diverges: %+v vs %+v", label, i, j, gc, wc)
			}
		}
	}
}

func fitOptions(extra ...forecast.Option) []forecast.Option {
	return append([]forecast.Option{
		forecast.WithPopulation(24),
		forecast.WithGenerations(400),
		forecast.WithMultiRun(2),
		forecast.WithSeed(11),
		forecast.WithSharedCache(),
	}, extra...)
}

// TestRemoteFitBitIdenticalToInProcess is the facade half of the
// acceptance criterion: forecast.Fit over a cluster of ≥2 shard
// servers produces a byte-identical system to the in-process engine
// for a fixed seed — including across a streaming Append+window round.
func TestRemoteFitBitIdenticalToInProcess(t *testing.T) {
	series := sine(360)
	train, err := forecast.Window(series, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainRemote, err := forecast.Window(series, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	local, err := forecast.New(fitOptions(forecast.WithEngine(4), forecast.WithSlidingWindow(300))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}

	addrs := startCluster(t, 3)
	dist, err := forecast.New(fitOptions(forecast.WithRemoteCluster(addrs...), forecast.WithSlidingWindow(300))...)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	if err := dist.Fit(context.Background(), trainRemote); err != nil {
		t.Fatal(err)
	}
	requireSameSystem(t, "after Fit", dist.RuleSet(), local.RuleSet())
	if ls, _ := local.StoreStats(); true {
		if ds, ok := dist.StoreStats(); !ok || ds.Live != ls.Live {
			t.Fatalf("live rows: remote %d (ok=%v), local %d", ds.Live, ok, ls.Live)
		}
	}

	// One streaming round: identical chunks through both stores.
	chunk := make([][]float64, 40)
	targets := make([]float64, 40)
	for i := range chunk {
		x := float64(i) / 7
		chunk[i] = []float64{math.Sin(x), math.Sin(x + 0.3), math.Sin(x + 0.6)}
		targets[i] = math.Sin(x + 0.9)
	}
	if err := local.Append(context.Background(), chunk, targets); err != nil {
		t.Fatal(err)
	}
	if err := dist.Append(context.Background(), chunk, targets); err != nil {
		t.Fatal(err)
	}
	requireSameSystem(t, "after Append", dist.RuleSet(), local.RuleSet())
}

// TestRemoteFitCancelledReturnsBestSoFar is the cancellation half of
// the acceptance criterion: a cancelled remote fit returns promptly
// with a best-so-far system installed and zero leaked goroutines.
func TestRemoteFitCancelledReturnsBestSoFar(t *testing.T) {
	train, err := forecast.Window(sine(360), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, 2)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	f, err := forecast.New(
		forecast.WithPopulation(24),
		forecast.WithGenerations(1<<30),
		forecast.WithSeed(3),
		forecast.WithRemoteCluster(addrs...),
		forecast.WithSharedCache(),
		forecast.WithProgress(50, func(forecast.Progress) bool {
			cancel()
			return true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Fit(ctx, train) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote Fit returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled remote Fit did not return")
	}
	if !f.Fitted() {
		t.Fatal("no best-so-far system installed after cancellation")
	}
	if _, ok := f.Predict(train.Inputs[0]); !ok {
		// Abstention is legal; the call itself must work.
		t.Log("best-so-far system abstained on the probe pattern")
	}
	f.Close()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
}

// TestRemoteFitDeadServerFailsLoudly: dialing a dead address fails
// fast with an error wrapping ErrRemote, and a server dying mid-fit
// surfaces the same wrapped error instead of a hang.
func TestRemoteFitDeadServerFailsLoudly(t *testing.T) {
	train, err := forecast.Window(sine(360), 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A dead address: nothing ever listened here.
	dead := startServer(t, engine.Options{})
	dead.kill()
	f, err := forecast.New(fitOptions(forecast.WithRemoteCluster(dead.addr))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), train); !errors.Is(err, forecast.ErrRemote) {
		t.Fatalf("Fit against a dead address returned %v, want ErrRemote", err)
	}
	if f.Fitted() {
		t.Fatal("a failed dial must not install a system")
	}

	// A server dying mid-fit: the first progress snapshot kills one.
	servers := []*killableServer{startServer(t, engine.Options{Shards: 2}), startServer(t, engine.Options{Shards: 2})}
	var once sync.Once
	f2, err := forecast.New(
		forecast.WithPopulation(24),
		forecast.WithGenerations(1<<30),
		forecast.WithSeed(5),
		forecast.WithRemoteCluster(servers[0].addr, servers[1].addr),
		forecast.WithSharedCache(),
		forecast.WithProgress(50, func(forecast.Progress) bool {
			once.Do(servers[1].kill)
			return true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	done := make(chan error, 1)
	go func() { done <- f2.Fit(context.Background(), train) }()
	select {
	case err := <-done:
		if !errors.Is(err, forecast.ErrRemote) {
			t.Fatalf("Fit with a dying server returned %v, want ErrRemote", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Fit hung after its server died")
	}
}

// TestWithRemoteClusterValidation: the option set fails fast on
// contradictions and bad addresses.
func TestWithRemoteClusterValidation(t *testing.T) {
	if _, err := forecast.New(forecast.WithRemoteCluster()); !errors.Is(err, forecast.ErrOption) {
		t.Fatalf("empty address list: %v", err)
	}
	if _, err := forecast.New(forecast.WithRemoteCluster("a:1", "")); !errors.Is(err, forecast.ErrOption) {
		t.Fatalf("blank address: %v", err)
	}
	if _, err := forecast.New(forecast.WithRemoteCluster("a:1"), forecast.WithEngine(4)); !errors.Is(err, forecast.ErrOption) {
		t.Fatalf("remote+engine: %v", err)
	}
	if _, err := forecast.New(forecast.WithRemoteCluster("a:1"), forecast.WithSharedCache(), forecast.WithSlidingWindow(10)); err != nil {
		t.Fatalf("remote+cache+window must be valid: %v", err)
	}
}
