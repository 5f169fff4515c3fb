package core_test

import (
	"context"

	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/series"
)

// Example shows the minimal train-and-predict loop: evolve rules on a
// sine wave and forecast one step ahead.
func Example() {
	// A clean sine series, windowed with D=4 inputs at horizon 1.
	v := make([]float64, 400)
	for i := range v {
		v[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	ds, err := series.Window(series.New("sine", v), 4, 1)
	if err != nil {
		panic(err)
	}

	cfg := core.Default(4)
	cfg.PopSize = 30
	cfg.Generations = 2000
	cfg.Seed = 1
	res, err := core.MultiRun(context.Background(), core.MultiRunConfig{
		Base:           cfg,
		CoverageTarget: 0.9,
		MaxExecutions:  2,
	}, ds)
	if err != nil {
		panic(err)
	}

	// Predict the continuation of a window the system has never seen.
	window := []float64{
		math.Sin(2 * math.Pi * 100.25),
		math.Sin(2 * math.Pi * 100.275),
		math.Sin(2 * math.Pi * 100.3),
		math.Sin(2 * math.Pi * 100.325),
	}
	pred, ok := res.RuleSet.Predict(window)
	want := math.Sin(2 * math.Pi * 100.35)
	fmt.Printf("covered=%v err<0.1=%v\n", ok, math.Abs(pred-want) < 0.1)
	// Output: covered=true err<0.1=true
}

// ExampleRuleSet_Predict demonstrates abstention: the system answers
// only where at least one rule matches.
func ExampleRuleSet_Predict() {
	rs := core.NewRuleSet(1)
	r := core.NewRule([]core.Interval{core.NewInterval(0, 10)})
	// Fit the rule by hand for the example: constant output 5.
	ev := core.NewEvaluator(&series.Dataset{
		Inputs:  [][]float64{{1}, {2}, {3}},
		Targets: []float64{5, 5, 5},
		D:       1, Horizon: 1,
	}, 1.0, 0, 1e-8, 1, core.EvalOptions{})
	ev.Evaluate(context.Background(), r)
	rs.Add(r)

	if v, ok := rs.Predict([]float64{4}); ok {
		fmt.Printf("in range: %.0f\n", v)
	}
	if _, ok := rs.Predict([]float64{99}); !ok {
		fmt.Println("out of range: abstained")
	}
	// Output:
	// in range: 5
	// out of range: abstained
}
