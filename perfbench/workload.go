package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/series"
)

// Venice protocol: 6000 hourly levels to train on, the next 1500 held
// out (or, streamed, appended chunk by chunk), windowed at D=24.
const (
	veniceTrainN = 6000
	veniceValN   = 1500
	veniceD      = 24
	// veniceWindow is the number of training patterns 6000 hours give at
	// D=24 and horizon 1; the streaming workload's sliding window keeps
	// exactly that many.
	veniceWindow = veniceTrainN - veniceD
	// streamChunk is the number of new hours one streaming round appends.
	streamChunk = 24
)

// workload is one benchmark input: a dataset built from the seed and a
// facade configuration with a fixed generation budget.
type workload struct {
	name   string
	gens   int  // steady-state generations per execution
	execs  int  // executions accumulated (WithMultiRun)
	remote bool // evaluate through two shard servers on loopback TCP
	stream bool // Fit, then Append + refit rounds over a sliding window
	// stride is the generation stride of the traced run's progress
	// timestamps when the fit runs inside core.MultiRun (execs > 1).
	stride int
	// digestKey names the reference table entry; mg4-remote shares mg4's.
	digestKey string
	mackey    bool // Mackey-Glass (else Venice) data
}

var workloads = []*workload{
	{name: "venice24", gens: 1000, execs: 1, digestKey: "venice24"},
	{name: "mg4", gens: 20000, execs: 2, stride: 50, digestKey: "mg4", mackey: true},
	{name: "mg4-remote", gens: 20000, execs: 2, stride: 50, digestKey: "mg4", mackey: true, remote: true},
	{name: "venice24-stream", gens: 100, execs: 1, digestKey: "venice24-stream", stream: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is a workload's data for one seed. Training datasets are
// windowed afresh for every fit, because a store takes over the dataset
// it is given (it assigns row ids and compacts it in place).
type inputs struct {
	train *series.Series
	test  *forecast.Dataset
	// values is the whole Venice series (training hours, then the
	// held-out hours the streaming rounds append).
	values []float64
}

// build synthesizes the workload's series and windows its held-out set.
// The Mackey-Glass series is the paper's fixed protocol and ignores the
// seed, which then only drives the evolution.
func (w *workload) build(seed int64) (*inputs, error) {
	if w.mackey {
		train, test, err := series.MackeyGlassPaper()
		if err != nil {
			return nil, err
		}
		ts, err := forecast.Embed(test, 4, 6, 50)
		if err != nil {
			return nil, err
		}
		in := &inputs{train: train, test: ts}
		_, err = in.trainSet(w)
		return in, err
	}
	train, val, err := series.VenicePaper(veniceTrainN, veniceValN, seed)
	if err != nil {
		return nil, err
	}
	ts, err := forecast.Window(val, veniceD, 1)
	if err != nil {
		return nil, err
	}
	values := make([]float64, 0, train.Len()+val.Len())
	values = append(append(values, train.Values...), val.Values...)
	in := &inputs{train: train, test: ts, values: values}
	_, err = in.trainSet(w)
	return in, err
}

// trainSet windows a fresh training dataset.
func (in *inputs) trainSet(w *workload) (*forecast.Dataset, error) {
	if w.mackey {
		return forecast.Embed(in.train, 4, 6, 50)
	}
	return forecast.Window(in.train, veniceD, 1)
}

// chunk returns the patterns streaming round r (0-based) appends: the
// windows the next streamChunk hours complete.
func (in *inputs) chunk(r int) ([][]float64, []float64) {
	old := veniceTrainN + r*streamChunk
	return series.TailPatterns(in.values[:old+streamChunk], old, veniceD, 1)
}

// options is the workload's facade configuration.
func (w *workload) options(seed int64, addrs []string) []forecast.Option {
	opts := []forecast.Option{
		forecast.WithSeed(seed),
		forecast.WithPopulation(100),
		forecast.WithGenerations(w.gens),
		forecast.WithSharedCache(),
	}
	if w.execs > 1 {
		opts = append(opts, forecast.WithMultiRun(w.execs), forecast.WithParallelism(2))
	}
	if w.remote {
		opts = append(opts, forecast.WithRemoteCluster(addrs...))
	} else {
		opts = append(opts, forecast.WithEngine(2))
	}
	if w.stream {
		opts = append(opts, forecast.WithSlidingWindow(veniceWindow))
	}
	return opts
}

// referenceOptions configures the independent path a seed without a
// recorded digest is checked against: the sequential single-index
// evaluator with private caches (the streaming workload, which needs a
// store, uses one shard instead). The repository guarantees both paths
// produce bit-identical rule sets.
func (w *workload) referenceOptions(seed int64) []forecast.Option {
	opts := []forecast.Option{
		forecast.WithSeed(seed),
		forecast.WithPopulation(100),
		forecast.WithGenerations(w.gens),
	}
	if w.execs > 1 {
		opts = append(opts, forecast.WithMultiRun(w.execs), forecast.WithParallelism(2))
	}
	if w.stream {
		opts = append(opts, forecast.WithEngine(1), forecast.WithSlidingWindow(veniceWindow))
	}
	return opts
}

// servers is a set of shard servers listening on loopback TCP inside
// this process.
type servers struct {
	addrs  []string
	lns    []net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startServers starts n shard servers, one engine shard each.
func startServers(n int) (*servers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &servers{cancel: cancel}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("shard server listener: %w", err)
		}
		s.lns = append(s.lns, l)
		s.addrs = append(s.addrs, l.Addr().String())
		srv := remote.NewServer(engine.Options{Shards: 1})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := srv.Serve(ctx, l); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Printf("# shard server: %v\n", err)
			}
		}()
	}
	return s, nil
}

// stop closes the listeners and waits for the accept loops to end.
// Connection handlers end when their clients close (every Forecaster
// and cluster the benchmark opens is closed after use).
func (s *servers) stop() {
	for _, l := range s.lns {
		l.Close()
	}
	s.cancel()
	s.wg.Wait()
}
