package forecast

import (
	"flag"
	"testing"
)

// TestFlagsSharedWiring checks the one-place CLI wiring: both
// binaries register through RegisterFlags, so the flag names and
// resolution rules cannot drift apart.
func TestFlagsSharedWiring(t *testing.T) {
	parse := func(args ...string) *Flags {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}

	if f := parse(); f.Enabled() || f.Options() != nil {
		t.Fatal("no flags: engine must stay disabled")
	}
	if f := parse("-shards", "8"); !f.Enabled() || f.Shards() != 8 {
		t.Fatalf("-shards 8: Enabled=%v Shards=%d", f.Enabled(), f.Shards())
	}
	if f := parse("-shards", "-1"); !f.Enabled() || f.Shards() != 0 {
		t.Fatalf("-shards -1 must resolve to the per-core default, got %d", f.Shards())
	}
	if f := parse("-window", "500"); !f.Enabled() || f.Window() != 500 {
		t.Fatalf("-window 500: Enabled=%v Window=%d", f.Enabled(), f.Window())
	}
	if f := parse("-window", "-3"); f.Enabled() || f.Window() != 0 {
		t.Fatalf("negative -window must clamp to unbounded, got %d", f.Window())
	}
	if f := parse("-remote", "a:1, b:2,,c:3"); !f.Enabled() {
		t.Fatal("-remote must enable the store")
	} else if got := f.Remote(); len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("-remote parsed to %v", got)
	}
	if f := parse(); f.Remote() != nil {
		t.Fatal("no -remote: Remote() must be nil")
	}
	// -remote of only commas must fail loudly at New, never silently
	// fall back to the in-process engine.
	if f := parse("-remote", ", ,"); !f.Enabled() {
		t.Fatal("-remote ', ,' must still enable the store path")
	} else if _, err := New(f.Options()...); err == nil {
		t.Fatal("New must reject a -remote with no usable addresses")
	}

	// The resolved option sets build valid Forecasters.
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-window", "100"},
		{"-shards", "-1", "-window", "50"},
		{"-remote", "h0:7070,h1:7071"},
		{"-remote", "h0:7070", "-window", "100"},
		// -shards with -remote is documented as ignored, not an error.
		{"-remote", "h0:7070", "-shards", "8"},
	} {
		f := parse(args...)
		if _, err := New(f.Options()...); err != nil {
			t.Fatalf("New(%v): %v", args, err)
		}
	}
}
