package forecast

import (
	"flag"
	"strings"
)

// Flags bundles the facade's engine-related CLI knobs so every binary
// (tsforecast, experiments, the examples) registers -window/-remote
// once, with one shared spelling and meaning, instead of each
// re-declaring and re-interpreting them.
type Flags struct {
	window *int
	remote *string
}

// RegisterFlags defines the engine flags on fs and returns the handle
// to resolve them after parsing.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		window: fs.Int("window", 0,
			"sliding-window cap on live training patterns: older rows are evicted (0 = keep everything; enables the engine)"),
		remote: fs.String("remote", "",
			"comma-separated shardserver addresses (host:port,host:port); evaluation is scattered across them instead of the in-process engine"),
	}
}

// Enabled reports whether any flag asked for an engine-backed store:
// -window or -remote.
func (f *Flags) Enabled() bool {
	return *f.window > 0 || *f.remote != ""
}

// Remote returns the parsed shardserver addresses, nil when -remote
// was not given. Empty segments (stray commas) are dropped.
func (f *Flags) Remote() []string {
	if *f.remote == "" {
		return nil
	}
	var addrs []string
	for _, a := range strings.Split(*f.remote, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Window returns the requested sliding-window cap (0 = unbounded).
func (f *Flags) Window() int {
	if *f.window < 0 {
		return 0
	}
	return *f.window
}

// Options resolves the parsed flags into facade options: a remote
// shard-server cluster when -remote is given, otherwise the
// in-process engine, plus the sliding window when requested. Nil when
// no flag asked for a store — results are bit-identical either way,
// the store is purely a capacity knob.
func (f *Flags) Options() []Option {
	if !f.Enabled() {
		return nil
	}
	var opts []Option
	if *f.remote != "" {
		// WithRemoteCluster validates the parsed list, so a -remote
		// of only commas/whitespace fails loudly at New instead of
		// silently training on the in-process engine.
		opts = []Option{WithRemoteCluster(f.Remote()...)}
	} else {
		opts = []Option{WithEngine(0)}
	}
	if w := f.Window(); w > 0 {
		opts = append(opts, WithSlidingWindow(w))
	}
	return opts
}
