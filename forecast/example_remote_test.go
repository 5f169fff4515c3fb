package forecast_test

import (
	"context"
	"fmt"
	"math"
	"net"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/remote"
)

// ExampleWithRemoteCluster distributes evaluation across two shard
// servers. Here both run in-process on loopback TCP listeners; in
// production each is a `shardserver` process on its own machine and
// only the address list changes. For a fixed seed the fitted system
// is bit-identical to an in-process run — distribution is purely a
// capacity knob.
func ExampleWithRemoteCluster() {
	// Two shard servers — stand-ins for `shardserver -listen …`
	// processes. Each keeps one match index over its slice.
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer l.Close()
		go remote.NewServer(engine.Options{}).Serve(context.Background(), l)
		addrs[i] = l.Addr().String()
	}

	train, err := forecast.Window(sine(400), 4, 1)
	if err != nil {
		panic(err)
	}
	f, err := forecast.New(
		forecast.WithPopulation(30),
		forecast.WithGenerations(2000),
		forecast.WithSeed(1),
		forecast.WithRemoteCluster(addrs...), // scatter evaluation across the servers
	)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	// Fit scatters the training set across the cluster and evolves
	// against it; a lost server would surface as ErrRemote, never a
	// silently degraded system.
	if err := f.Fit(context.Background(), train); err != nil {
		panic(err)
	}

	window := []float64{
		math.Sin(2 * math.Pi * 100.25),
		math.Sin(2 * math.Pi * 100.275),
		math.Sin(2 * math.Pi * 100.3),
		math.Sin(2 * math.Pi * 100.325),
	}
	pred, ok := f.Predict(window)
	want := math.Sin(2 * math.Pi * 100.35)
	fmt.Printf("covered=%v err<0.1=%v\n", ok, math.Abs(pred-want) < 0.1)
	// Output: covered=true err<0.1=true
}
