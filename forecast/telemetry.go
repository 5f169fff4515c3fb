package forecast

import (
	"context"
	"fmt"
	"io"

	"repro/internal/obs"
)

// Telemetry re-exports the metrics registry so facade consumers can
// attach one without importing internal packages. A registry collects
// counters, gauges and histograms from every layer it is wired into —
// the engine's batch latencies and mutation timings, the remote
// cluster's per-verb RPC timings, the evolutionary core's generation,
// cache and trajectory metrics — all lock-free on the hot paths. The same
// registry can additionally be served live over HTTP (see the
// -debug-addr flag on cmd/tsforecast and cmd/shardserver).
type (
	// Telemetry is a process-wide metrics registry; build one with
	// NewTelemetry and pass it to WithTelemetry.
	Telemetry = obs.Registry
	// TelemetrySnapshot maps metric names to their point-in-time
	// values: uint64 (counter), float64 (gauge), or a histogram
	// value with count/sum/mean and power-of-two buckets.
	TelemetrySnapshot = obs.Snapshot
)

// NewTelemetry returns an empty metrics registry on the monotonic
// system clock, ready for WithTelemetry.
func NewTelemetry() *Telemetry { return obs.New() }

// WithTelemetry attaches a metrics registry to the Forecaster: Fit
// instruments the training store (engine or remote cluster) and every
// execution's evolutionary loop with it, and the facade itself records
// fit/append/evict trace events when the registry has a trace sink.
// Purely observational — results are bit-identical with or without it.
// Share one registry across Forecasters to aggregate, or attach one
// per Forecaster to separate them.
func WithTelemetry(t *Telemetry) Option {
	return func(s *settings) error {
		if t == nil {
			return fmt.Errorf("%w: WithTelemetry registry must be non-nil", ErrOption)
		}
		s.telemetry = t
		return nil
	}
}

// TraceTo attaches a JSONL trace sink to the registry: every trace
// event from the instrumented layers (fit lifecycle, best-of-run
// improvements, execution summaries) is appended to the file as one
// JSON object per line. Close the returned closer to flush and detach.
func TraceTo(t *Telemetry, path string) (io.Closer, error) {
	tr, err := obs.TraceFile(path, nil)
	if err != nil {
		return nil, err
	}
	t.TraceTo(tr)
	return tr, nil
}

// Telemetry returns a point-in-time snapshot of the attached registry;
// nil when the Forecaster was built without WithTelemetry.
func (f *Forecaster) Telemetry() TelemetrySnapshot {
	return f.s.telemetry.Snapshot()
}

// trace emits a facade-level trace event when a traced registry is
// attached; otherwise it is a nil/flag check and nothing more.
func (f *Forecaster) trace(event string, fields map[string]any) {
	if t := f.s.telemetry; t.Tracing() {
		t.Trace(event, fields)
	}
}

// fitSpan opens the root span of one Fit — the top of the trace tree
// every core execution, generation, batch and RPC span hangs under,
// across this process's trace file and every shardserver's. (ctx, nil)
// when no traced registry is attached.
func (f *Forecaster) fitSpan(ctx context.Context) (context.Context, *obs.Span) {
	t := f.s.telemetry
	if !t.Tracing() {
		return ctx, nil
	}
	sp := t.StartSpan("forecast.fit", obs.SpanContext{})
	return obs.ContextWithSpan(ctx, sp), sp
}
