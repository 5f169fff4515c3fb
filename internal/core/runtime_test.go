package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/series"
)

func runtimeTestDataset(t *testing.T) *series.Dataset {
	t.Helper()
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	ds, err := series.Window(series.New("runtime", vals), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fakeBackend is the minimal Backend for validation tests; it is never
// queried.
type fakeBackend struct{ data *series.Dataset }

func (f *fakeBackend) Data() *series.Dataset    { return f.data }
func (f *fakeBackend) Epoch() uint64            { return 0 }
func (f *fakeBackend) MatchIndices(*Rule) []int { return nil }
func (f *fakeBackend) MatchBatch(_ context.Context, rules []*Rule) [][]int {
	return make([][]int, len(rules))
}

func TestRuntimeValidate(t *testing.T) {
	ds := runtimeTestDataset(t)

	var zero Runtime
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Runtime must be valid, got %v", err)
	}

	neg := Runtime{Workers: -1}
	if err := neg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative Workers: want ErrConfig, got %v", err)
	}

	// The documented-invalid pairing: a shared cache with no backend to
	// scope its keys. This used to be accepted and silently ignored.
	orphan := Runtime{Cache: NewResultCache()}
	if err := orphan.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("Cache without Backend: want ErrConfig, got %v", err)
	}

	paired := Runtime{Backend: &fakeBackend{data: ds}, Cache: NewResultCache()}
	if err := paired.Validate(); err != nil {
		t.Fatalf("Cache with Backend must be valid, got %v", err)
	}
}

// TestConfigValidateRejectsOrphanCache pins the bugfix at the Config
// level: NewExecution must refuse the configuration instead of
// dropping the cache.
func TestConfigValidateRejectsOrphanCache(t *testing.T) {
	ds := runtimeTestDataset(t)
	cfg := Default(ds.D)
	cfg.Runtime.Cache = NewResultCache()
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("Config.Validate with orphan cache: want ErrConfig, got %v", err)
	}
	if _, err := NewExecution(context.Background(), cfg, ds); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewExecution with orphan cache: want ErrConfig, got %v", err)
	}
}
