// Package series provides the time-series data model shared by every
// component (a Series of ordered observations and a windowed Dataset
// of input-pattern/target pairs) plus generators for the paper's three
// evaluation domains: the Mackey-Glass delay-differential system, a
// Venice-Lagoon-like tide simulator, and a sunspot-like solar-cycle
// simulator. The real Venice gauge record and the SIDC sunspot archive
// are not redistributable/reachable offline; DESIGN.md §4 documents
// why the synthetic stand-ins preserve the behaviours the paper's
// method exploits.
package series

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Series is an ordered sequence of observations of one variable.
type Series struct {
	Name   string
	Values []float64
}

// New returns a Series with the given name and values (not copied).
func New(name string, values []float64) *Series {
	return &Series{Name: name, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// Slice returns a sub-series covering [lo,hi).
func (s *Series) Slice(lo, hi int) *Series {
	if lo < 0 || hi > len(s.Values) || lo > hi {
		panic(fmt.Sprintf("series: Slice[%d:%d) of %d values", lo, hi, len(s.Values)))
	}
	return &Series{Name: s.Name, Values: s.Values[lo:hi]}
}

// Summary returns descriptive statistics of the series.
func (s *Series) Summary() stats.Summary { return stats.Summarize(s.Values) }

// Normalize returns a copy of the series min-max scaled to [0,1] along
// with the fitted scaler so predictions can be mapped back.
func (s *Series) Normalize() (*Series, *stats.MinMaxScaler) {
	sc := stats.FitMinMax(s.Values)
	return &Series{Name: s.Name + "/norm", Values: sc.TransformSlice(s.Values)}, sc
}

// RowID is the stable identity of one dataset row (pattern). Row
// positions shift when a lifecycle-managed store compacts deleted
// rows away, so anything that must name a row across mutations —
// tombstones, sliding-window eviction, delete requests — refers to it
// by RowID instead. IDs are assigned in insertion order and never
// reused, so a dataset that preserves insertion order (every mutation
// in this repository does) keeps its IDs slice in ascending order.
type RowID int64

// Dataset is the windowed view of a series used by every learner in
// this repository: Inputs[i] holds D consecutive observations
// (x_i ... x_{i+D-1}) and Targets[i] holds x_{i+D-1+Horizon}, matching
// the paper's pattern definition X_i and output v_i.
type Dataset struct {
	Inputs  [][]float64
	Targets []float64
	// IDs optionally carries one stable RowID per pattern, in the same
	// order as Inputs/Targets. Nil means rows have only positional
	// identity — enough for the frozen-dataset learners; the
	// lifecycle-managed store (internal/engine) calls AssignIDs so
	// deletes and sliding windows survive compaction.
	IDs     []RowID
	D       int // window width (number of consecutive inputs)
	Horizon int // prediction horizon τ
}

// ErrTooShort is returned when a series cannot produce even one
// pattern for the requested window and horizon.
var ErrTooShort = errors.New("series: series too short for window+horizon")

// Window slides a (D, horizon) window over the series and returns the
// resulting dataset. Patterns share backing storage with the series
// (they are sub-slices), so callers must not mutate them.
func Window(s *Series, d, horizon int) (*Dataset, error) {
	if d <= 0 {
		return nil, fmt.Errorf("series: window width %d must be positive", d)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("series: horizon %d must be positive", horizon)
	}
	n := s.Len() - d - horizon + 1
	if n <= 0 {
		return nil, fmt.Errorf("%w: len=%d D=%d τ=%d", ErrTooShort, s.Len(), d, horizon)
	}
	ds := &Dataset{
		Inputs:  make([][]float64, n),
		Targets: make([]float64, n),
		D:       d,
		Horizon: horizon,
	}
	for i := 0; i < n; i++ {
		ds.Inputs[i] = s.Values[i : i+d]
		ds.Targets[i] = s.Values[i+d-1+horizon]
	}
	return ds, nil
}

// TailPatterns returns the windowed patterns a series grown from
// oldLen to len(values) samples adds — the payload a streaming loop
// feeds to its store's Append. Windows straddling the boundary belong
// to the new data: they could not be formed before the growth
// arrived. Inputs alias values, matching Window.
func TailPatterns(values []float64, oldLen, d, horizon int) (inputs [][]float64, targets []float64) {
	first := oldLen - d - horizon + 1
	if first < 0 {
		first = 0
	}
	for i := first; i+d-1+horizon < len(values); i++ {
		inputs = append(inputs, values[i:i+d])
		targets = append(targets, values[i+d-1+horizon])
	}
	return inputs, targets
}

// WindowEmbed is the delay-embedded variant used throughout the
// Mackey-Glass literature (Platt 1991, Yingwei et al. 1997): pattern i
// holds x_i, x_{i+spacing}, ..., x_{i+(d-1)·spacing} and the target is
// x_{i+(d-1)·spacing+horizon}. WindowEmbed(s, d, 1, τ) ≡ Window(s, d, τ).
// Inputs are freshly allocated (they are not contiguous sub-slices).
func WindowEmbed(s *Series, d, spacing, horizon int) (*Dataset, error) {
	if spacing == 1 {
		return Window(s, d, horizon)
	}
	if d <= 0 {
		return nil, fmt.Errorf("series: window width %d must be positive", d)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("series: spacing %d must be positive", spacing)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("series: horizon %d must be positive", horizon)
	}
	reach := (d-1)*spacing + horizon
	n := s.Len() - reach
	if n <= 0 {
		return nil, fmt.Errorf("%w: len=%d D=%d spacing=%d τ=%d", ErrTooShort, s.Len(), d, spacing, horizon)
	}
	ds := &Dataset{
		Inputs:  make([][]float64, n),
		Targets: make([]float64, n),
		D:       d,
		Horizon: horizon,
	}
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := 0; j < d; j++ {
			row[j] = s.Values[i+j*spacing]
		}
		ds.Inputs[i] = row
		ds.Targets[i] = s.Values[i+reach]
	}
	return ds, nil
}

// Len returns the number of patterns.
func (ds *Dataset) Len() int { return len(ds.Targets) }

// AssignIDs gives every row a stable identity, numbering them
// start, start+1, ... in row order, and returns the next unused id —
// the counter a streaming store continues from when appending. Any
// existing IDs are replaced.
func (ds *Dataset) AssignIDs(start RowID) RowID {
	ds.IDs = make([]RowID, ds.Len())
	for i := range ds.IDs {
		ds.IDs[i] = start + RowID(i)
	}
	return start + RowID(ds.Len())
}

// HasIDs reports whether every row carries a stable identity.
func (ds *Dataset) HasIDs() bool { return len(ds.IDs) == ds.Len() && ds.Len() > 0 }

// HasAscendingIDs reports whether every row carries a usable id, in
// strictly ascending order — the invariant every lifecycle-store
// mutation preserves, and the adoption predicate both the in-process
// engine and the remote cluster apply to a dataset handed to them:
// ascending ids are kept (a store handing data across stores),
// anything else is renumbered.
func (ds *Dataset) HasAscendingIDs() bool {
	if !ds.HasIDs() {
		return false
	}
	for i := 1; i < len(ds.IDs); i++ {
		if ds.IDs[i] <= ds.IDs[i-1] {
			return false
		}
	}
	return true
}

// Split partitions the dataset at index k into train (first k
// patterns) and test (the rest). Panics if k is out of range.
func (ds *Dataset) Split(k int) (train, test *Dataset) {
	if k < 0 || k > ds.Len() {
		panic(fmt.Sprintf("series: Split(%d) of %d patterns", k, ds.Len()))
	}
	train = &Dataset{Inputs: ds.Inputs[:k], Targets: ds.Targets[:k], D: ds.D, Horizon: ds.Horizon}
	test = &Dataset{Inputs: ds.Inputs[k:], Targets: ds.Targets[k:], D: ds.D, Horizon: ds.Horizon}
	if len(ds.IDs) == ds.Len() {
		// Row identities travel with their rows.
		train.IDs = ds.IDs[:k]
		test.IDs = ds.IDs[k:]
	}
	return train, test
}

// SplitFraction splits with the first fraction f (0<f<1) as training.
func (ds *Dataset) SplitFraction(f float64) (train, test *Dataset) {
	if f <= 0 || f >= 1 {
		panic(fmt.Sprintf("series: SplitFraction(%v) outside (0,1)", f))
	}
	return ds.Split(int(f * float64(ds.Len())))
}

// TargetRange returns the smallest and largest target values, the
// output span the paper's initializer stratifies over.
func (ds *Dataset) TargetRange() (lo, hi float64) {
	return stats.MinMax(ds.Targets)
}
