package core

// Multi-step forecasting utilities. The paper trains one rule system
// per horizon ("direct" forecasting); IteratedForecast provides the
// classic alternative: apply a horizon-1 system repeatedly, feeding
// predictions back as inputs. Direct wins when abstention matters
// (iterated chains break at the first abstention), iterated wins on
// training cost (one system serves every horizon).

// IteratedForecast rolls the rule system forward `steps` times
// starting from the D most recent observations in window (window may
// be longer than D; only the tail is used). It returns the forecast
// trajectory and the number of steps completed before the system
// first abstained (== steps when the full trajectory was produced).
func (rs *RuleSet) IteratedForecast(window []float64, steps int) ([]float64, int) {
	if steps < 1 || len(window) < rs.D {
		return nil, 0
	}
	buf := append([]float64(nil), window[len(window)-rs.D:]...)
	out := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		v, ok := rs.Predict(buf)
		if !ok {
			return out, s
		}
		out = append(out, v)
		buf = append(buf[1:], v)
	}
	return out, steps
}
