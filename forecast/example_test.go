package forecast_test

import (
	"context"
	"fmt"
	"math"

	"repro/forecast"
	"repro/internal/series"
)

// sine returns a clean periodic series — fast to learn, so the
// examples run in well under a second.
func sine(n int) *forecast.Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	return series.New("sine", v)
}

// Example shows the minimal train-and-predict loop through the
// facade: build a Forecaster, Fit it, ask for one prediction.
func Example() {
	train, err := forecast.Window(sine(400), 4, 1)
	if err != nil {
		panic(err)
	}

	f, err := forecast.New(
		forecast.WithPopulation(30),
		forecast.WithGenerations(2000),
		forecast.WithMultiRun(2),
		forecast.WithCoverageTarget(0.9),
		forecast.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	if err := f.Fit(context.Background(), train); err != nil {
		panic(err)
	}

	// Predict the continuation of a window the system has never seen.
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

// ExampleForecaster_Fit_cancellation shows the context contract: a
// cancelled Fit returns promptly with the best-so-far system
// installed, so the Forecaster stays usable.
func ExampleForecaster_Fit_cancellation() {
	train, err := forecast.Window(sine(400), 4, 1)
	if err != nil {
		panic(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f, err := forecast.New(
		forecast.WithPopulation(30),
		forecast.WithGenerations(1<<30), // far more budget than we will spend
		forecast.WithSeed(1),
		// Cancel from the first progress snapshot — deterministic, no
		// timers involved.
		forecast.WithProgress(500, func(p forecast.Progress) bool {
			cancel()
			return true
		}),
	)
	if err != nil {
		panic(err)
	}

	err = f.Fit(ctx, train)
	fmt.Printf("cancelled=%v fitted=%v\n", err == context.Canceled, f.Fitted())
	// Output: cancelled=true fitted=true
}

// ExampleForecaster_Append shows the streaming verbs: an engine-backed
// Forecaster with a sliding window absorbs new data with Append and
// keeps its training set capped.
func ExampleForecaster_Append() {
	s := sine(600)
	train, err := forecast.Window(series.New("sine/prefix", s.Values[:400]), 4, 1)
	if err != nil {
		panic(err)
	}

	f, err := forecast.New(
		forecast.WithPopulation(24),
		forecast.WithGenerations(500),
		forecast.WithSeed(1),
		forecast.WithEngine(0),
		forecast.WithSlidingWindow(300),
	)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	if err := f.Fit(ctx, train); err != nil {
		panic(err)
	}
	before, _ := f.StoreStats()

	// 200 more samples arrive; the window stays at 300 live patterns.
	inputs, targets := series.TailPatterns(s.Values, 400, 4, 1)
	if err := f.Append(ctx, inputs, targets); err != nil {
		panic(err)
	}
	after, _ := f.StoreStats()
	fmt.Printf("live %d -> %d (epoch advanced=%v)\n",
		before.Live, after.Live, after.Epoch > before.Epoch)
	// Output: live 300 -> 300 (epoch advanced=true)
}
