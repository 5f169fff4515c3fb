package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Options configures a Cluster.
type Options struct {
	// Timeout caps every RPC issued without a caller deadline: the
	// mutation verbs (the core.Store lifecycle methods carry no
	// context) and match passes whose caller context has no deadline
	// of its own — a server that stops responding without closing its
	// connection must surface as an error, never a hang. Raise it for
	// datasets whose per-server match pass legitimately runs long, or
	// put a deadline on the training context to take over entirely.
	// 0 means DefaultTimeout; negative disables the cap.
	Timeout time.Duration
}

// DefaultTimeout bounds mutation RPCs when Options.Timeout is unset,
// so a hung server surfaces as a wrapped error instead of a deadlock.
const DefaultTimeout = 30 * time.Second

// Cluster is the scatter/gather client over a set of shard servers.
// It implements the full core.Store contract — the same one the
// in-process engine speaks — so evaluators, multi-run waves, islands
// and the facade run unchanged against data spread over machines:
//
//   - Load scatters a dataset across the servers (contiguous slices,
//     mirroring the in-process shard layout); Sync instead adopts
//     rows the servers already hold.
//   - MatchBatch sends one whole generation to every server
//     concurrently, and merges the per-server ascending RowID answers
//     through a global RowID→position remap into ascending positions
//     over the merged view — bit-identical to the in-process engine
//     over the same rows.
//   - The lifecycle verbs (Append/Delete/Window) decompose into
//     per-owner RPCs, and an append goes whole to the server with the
//     fewest rows; the client keeps the global bookkeeping (merged
//     view, ownership) and a composite epoch, which every
//     evaluation-cache key embeds, so no cached result survives a
//     remote mutation.
//
// A Cluster is the single writer of its servers: mutations must not
// run concurrently with evaluation (the same exclusion the engine
// requires), and no other client may mutate the same servers. Any
// transport failure is sticky (BackendErr): the cluster refuses
// further work and the training loop aborts with a wrapped error
// rather than evolving against incomplete matched sets.
type Cluster struct {
	conns   []*conn
	timeout time.Duration
	cache   *engine.SharedCache // returned by Cache; never read or written by the cluster
	tel     *rpcClientTelemetry // set by Instrument before the cluster is shared; nil = disabled

	mu     sync.RWMutex
	data   *series.Dataset // guarded by mu: merged view — every row, insertion (ascending-RowID) order
	owner  []int32         // guarded by mu: owner[pos]: server index holding that row
	liveBy []int           // guarded by mu: rows per server (append routing, LiveSpread)
	epochs []uint64        // guarded by mu: last known per-server epochs
	local  uint64          // guarded by mu: cluster-level mutations (composite epoch component)
	nextID series.RowID    // guarded by mu

	epoch atomic.Uint64 // composite epoch, kept hot for per-evaluation reads
	fail  atomic.Pointer[error]
}

// NewCluster builds a cluster over one conn per dialer; no IO happens
// until Load, Sync or the first RPC. Use Dial for the common
// eager-connect TCP path.
func NewCluster(dialers []Dialer, opt Options) (*Cluster, error) {
	if len(dialers) == 0 {
		return nil, fmt.Errorf("%w: a cluster needs at least one server", core.ErrConfig)
	}
	switch {
	case opt.Timeout == 0:
		opt.Timeout = DefaultTimeout
	case opt.Timeout < 0:
		opt.Timeout = 0
	}
	c := &Cluster{
		conns:   make([]*conn, len(dialers)),
		timeout: opt.Timeout,
		cache:   engine.NewSharedCache(0),
		liveBy:  make([]int, len(dialers)),
		epochs:  make([]uint64, len(dialers)),
	}
	for si, d := range dialers {
		c.conns[si] = &conn{dial: d, onRedial: c.redialCheckLocked(si)}
	}
	return c, nil
}

// Dial connects to the given shard-server addresses (TCP host:port)
// and verifies every one is reachable before returning. The context
// bounds the dials.
func Dial(ctx context.Context, addrs []string, opt Options) (*Cluster, error) {
	dialers := make([]Dialer, len(addrs))
	for i, a := range addrs {
		dialers[i] = TCP(a)
	}
	c, err := NewCluster(dialers, opt)
	if err != nil {
		return nil, err
	}
	if err := c.fan(nil, func(si int) error {
		_, err := c.conns[si].roundTrip(ctx, []byte{opEpoch})
		return err
	}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// redialCheckLocked mints the closure verifying a reconnected server
// still holds the state the cluster last saw — a restarted server
// lost its slice and must fail loudly. Reconnects happen after a
// cancelled query poisoned the connection mid-frame; queries never
// mutate, so epoch and live count are exact invariants. The closure
// runs inside an RPC, under the lock the issuing verb holds — hence
// the Locked suffix, despite being minted lock-free at construction.
func (c *Cluster) redialCheckLocked(si int) func(rt func([]byte) ([]byte, error)) error {
	return func(rt func([]byte) ([]byte, error)) error {
		resp, err := rt([]byte{opEpoch})
		if err != nil {
			return err
		}
		d := &dec{b: resp}
		if got, want := d.u64(), c.epochs[si]; d.err != nil || got != want {
			return fmt.Errorf("%w: %s: epoch %d after reconnect, want %d (server restarted or mutated behind our back)",
				ErrTransport, c.conns[si].dial.Addr(), got, want)
		}
		resp, err = rt([]byte{opLiveLen})
		if err != nil {
			return err
		}
		d = &dec{b: resp}
		if got, want := int(d.uvarint()), c.liveBy[si]; d.err != nil || got != want {
			return fmt.Errorf("%w: %s: %d live rows after reconnect, want %d",
				ErrTransport, c.conns[si].dial.Addr(), got, want)
		}
		return nil
	}
}

// Close shuts every server connection down. The servers keep their
// slices; a new cluster can Sync onto them.
func (c *Cluster) Close() error {
	for _, cn := range c.conns {
		cn.close()
	}
	return nil
}

// Retire permanently poisons the cluster and closes its connections:
// every later query returns results the evaluator refuses, every
// mutation returns the sticky error. forecast.Fit retires the
// previous fit's cluster before scattering a new dataset onto the
// same servers — from that point the old merged view describes no
// server state, and RowID overlap would otherwise let a stale client
// remap the new data's matches onto the old view silently.
func (c *Cluster) Retire() {
	c.setFail(fmt.Errorf("%w: cluster retired: its servers were re-loaded by a newer Fit", ErrTransport))
	c.Close()
}

// Cache returns a cache the cluster holds but never reads or writes,
// kept for the end-to-end benchmark (perfbench), which shares it
// across its executions through core.Runtime.Cache. Fits through the
// facade do not use it.
func (c *Cluster) Cache() *engine.SharedCache { return c.cache }

// P returns the number of shard servers.
func (c *Cluster) P() int { return len(c.conns) }

// BackendErr reports the cluster's sticky transport failure
// (core.BackendHealth): the first dial/IO/protocol error or state
// divergence. Once set, queries return incomplete results the
// evaluator refuses to use, and mutations refuse to run — the cluster
// must be rebuilt.
func (c *Cluster) BackendErr() error {
	if p := c.fail.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *Cluster) setFail(err error) {
	if err == nil {
		return
	}
	// Everything sticky is a cluster failure by definition — wrap
	// server-reported rejections too, so errors.Is(err, ErrTransport)
	// holds for every way a cluster can die.
	if !errors.Is(err, ErrTransport) {
		err = fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if c.fail.CompareAndSwap(nil, &err) && c.tel != nil {
		// Count only the winning (sticky) failure, not the losers of
		// the race: one dead cluster is one fault.
		c.tel.faults.Inc()
	}
}

// opCtx bounds RPCs issued without a caller context (the core.Store
// lifecycle verbs).
func (c *Cluster) opCtx() (context.Context, context.CancelFunc) {
	//lint:ignore ctx the ctx-free core.Store lifecycle verbs need a root context; opCtx is their one sanctioned source, bounded by Options.Timeout
	ctx := context.Background()
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}

// fan runs fn for the listed servers (nil = all) concurrently and
// returns the first error.
func (c *Cluster) fan(targets []int, fn func(si int) error) error {
	if targets == nil {
		targets = make([]int, len(c.conns))
		for i := range targets {
			targets[i] = i
		}
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, si := range targets {
		wg.Add(1)
		go func(k, si int) {
			defer wg.Done()
			errs[k] = fn(si)
		}(k, si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// storeEpochLocked refreshes the composite epoch: the cluster's own
// mutation count plus the sum of every server's epoch (both
// components only grow, so the composite is monotonic). Callers hold
// the write lock.
func (c *Cluster) storeEpochLocked() {
	sum := c.local
	for _, e := range c.epochs {
		sum += e
	}
	c.epoch.Store(sum)
}

// finishMutationLocked is the common tail of every mutating verb: bump
// the cluster's own epoch component, which expires every cached
// evaluation keyed on the old composite epoch. Callers hold the write
// lock.
func (c *Cluster) finishMutationLocked() {
	c.local++
	c.storeEpochLocked()
}

// Load scatters the dataset across the servers: contiguous slices,
// remainder spread over the first servers — the same layout the
// in-process engine's initial partitioning uses, one level up. The
// cluster adopts ds as its merged view (assigning RowIDs if the
// dataset carries none), so — exactly like handing a dataset to
// engine.New — the caller must treat it as moved: mutations grow and
// shrink it in place. Any prior state on the servers is replaced.
func (c *Cluster) Load(ctx context.Context, ds *series.Dataset) error {
	if err := c.BackendErr(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := ds.Len()
	if ds.HasAscendingIDs() {
		c.nextID = ds.IDs[n-1] + 1
	} else {
		c.nextID = ds.AssignIDs(0)
	}
	s := len(c.conns)
	base, rem := n/s, n%s
	starts := make([]int, s+1)
	for i := 0; i < s; i++ {
		size := base
		if i < rem {
			size++
		}
		starts[i+1] = starts[i] + size
	}
	epochs := make([]uint64, s)
	err := c.fan(nil, func(si int) error {
		lo, hi := starts[si], starts[si+1]
		req := []byte{opReset}
		req = binary.AppendUvarint(req, uint64(ds.D))
		req = binary.AppendUvarint(req, uint64(ds.Horizon))
		req = appendRows(req, ds.Inputs[lo:hi], ds.Targets[lo:hi], ds.IDs[lo:hi])
		resp, err := c.conns[si].roundTrip(ctx, req)
		if err != nil {
			return err
		}
		d := &dec{b: resp}
		epochs[si] = d.u64()
		return d.err
	})
	if err != nil {
		c.setFail(err)
		return err
	}
	c.data = ds
	c.owner = make([]int32, n)
	c.liveBy = make([]int, s)
	for si := 0; si < s; si++ {
		for pos := starts[si]; pos < starts[si+1]; pos++ {
			c.owner[pos] = int32(si)
		}
		c.liveBy[si] = starts[si+1] - starts[si]
	}
	c.epochs = epochs
	c.finishMutationLocked()
	return nil
}

// Sync adopts the rows the servers already hold (snapshot RPCs): the
// merged view is every server's rows sorted by RowID, which must
// be globally unique — the invariant a prior Load/Append history
// guarantees. This is how a fresh client attaches to a running
// cluster, e.g. shard servers preloaded from CSV slices.
func (c *Cluster) Sync(ctx context.Context) error {
	if err := c.BackendErr(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	type snap struct {
		d, horizon int
		epoch      uint64
		inputs     [][]float64
		targets    []float64
		ids        []series.RowID
	}
	snaps := make([]snap, len(c.conns))
	err := c.fan(nil, func(si int) error {
		resp, err := c.conns[si].roundTrip(ctx, []byte{opSnapshot})
		if err != nil {
			return err
		}
		d := &dec{b: resp}
		sn := snap{d: int(d.uvarint()), horizon: int(d.uvarint()), epoch: d.u64()}
		sn.inputs, sn.targets, sn.ids = d.rows(sn.d)
		if d.err != nil {
			return fmt.Errorf("%w: %s: %v", ErrTransport, c.conns[si].dial.Addr(), d.err)
		}
		snaps[si] = sn
		return nil
	})
	if err != nil {
		c.setFail(err)
		return err
	}
	width, horizon := snaps[0].d, snaps[0].horizon
	total := 0
	for si, sn := range snaps {
		if sn.d != width || sn.horizon != horizon {
			err := fmt.Errorf("%w: %s: dataset shape (D=%d, τ=%d) differs from %s (D=%d, τ=%d)",
				ErrTransport, c.conns[si].dial.Addr(), sn.d, sn.horizon, c.conns[0].dial.Addr(), width, horizon)
			c.setFail(err)
			return err
		}
		total += len(sn.ids)
	}
	// Merge by ascending RowID: collect (server, local) refs, sort by
	// id, demand global uniqueness.
	type ref struct{ si, li int }
	refs := make([]ref, 0, total)
	for si, sn := range snaps {
		for li := range sn.ids {
			refs = append(refs, ref{si, li})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		return snaps[refs[a].si].ids[refs[a].li] < snaps[refs[b].si].ids[refs[b].li]
	})
	data := &series.Dataset{
		Inputs:  make([][]float64, total),
		Targets: make([]float64, total),
		IDs:     make([]series.RowID, total),
		D:       width,
		Horizon: horizon,
	}
	owner := make([]int32, total)
	liveBy := make([]int, len(c.conns))
	for pos, rf := range refs {
		sn := snaps[rf.si]
		id := sn.ids[rf.li]
		if pos > 0 && id <= data.IDs[pos-1] {
			err := fmt.Errorf("%w: row id %d held by two servers — not one cluster's data", ErrTransport, id)
			c.setFail(err)
			return err
		}
		data.Inputs[pos] = sn.inputs[rf.li]
		data.Targets[pos] = sn.targets[rf.li]
		data.IDs[pos] = id
		owner[pos] = int32(rf.si)
		liveBy[rf.si]++
	}
	c.data, c.owner, c.liveBy = data, owner, liveBy
	for si, sn := range snaps {
		c.epochs[si] = sn.epoch
	}
	c.nextID = 0
	if total > 0 {
		c.nextID = data.IDs[total-1] + 1
	}
	c.finishMutationLocked()
	return nil
}

// ---- core.Store: query side ----

// Data returns the merged training view: every row in insertion
// order, the pointer evaluators key on. Mutations grow and
// shrink it in place, exactly like the in-process engine's view.
func (c *Cluster) Data() *series.Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.data
}

// Epoch returns the composite data epoch (cluster mutations plus the
// sum of server epochs); evaluation-cache keys embed it, so a result
// computed against any earlier state of any server can never be
// served afterwards.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// LiveLen returns the number of rows across the cluster:
// Data().Len().
func (c *Cluster) LiveLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.data.Len()
}

// LiveSpread returns the smallest and largest per-server row
// counts — the balance observable, one level above shard spread.
func (c *Cluster) LiveSpread() (lo, hi int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lo = -1
	for _, n := range c.liveBy {
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// locateLocked finds the position of the row with the given id, or -1. The
// id column is ascending, so this is a binary search. Callers hold a
// lock.
func (c *Cluster) locateLocked(id series.RowID) int {
	ids := c.data.IDs
	pos := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if pos == len(ids) || ids[pos] != id {
		return -1
	}
	return pos
}

// MatchIndices returns the rule's matched positions over the merged
// view, ascending — one single-rule batch, bounded by opCtx
// like every other ctx-free verb. MatchBatch's internal stall timeout
// applies on top, so a hung server trips the sticky BackendErr here
// too and the evaluator refuses the empty result.
func (c *Cluster) MatchIndices(r *core.Rule) []int {
	ctx, cancel := c.opCtx()
	defer cancel()
	//lint:ignore ctx core.Backend.MatchIndices is interface-locked without a context parameter; opCtx bounds the RPC instead
	return c.MatchBatch(ctx, []*core.Rule{r})[0]
}

// MatchIndicesCtx is MatchIndices with the caller's context: the RPC
// is cancellable by the caller and inherits its trace span, so a
// traced evaluation shows the single-rule matches it issues. The
// cluster's Timeout still applies when ctx carries no deadline
// (inside MatchBatch). Implements core.BackendCtx; the evaluator
// prefers it over MatchIndices when it holds a context.
func (c *Cluster) MatchIndicesCtx(ctx context.Context, r *core.Rule) []int {
	return c.MatchBatch(ctx, []*core.Rule{r})[0]
}

// MatchBatch answers one whole generation: the encoded batch goes to
// every server concurrently (each owns a disjoint slice of the rows),
// the per-server ascending RowID answers are remapped to global
// positions and merged through a bitmap sweep — the same
// deterministic merge the in-process shards use, so out[i] is
// bit-identical to the engine's answer over the same rows.
//
// The caller's context bounds everything: on cancellation in-flight
// IO is interrupted, the poisoned connections are dropped (redialed
// on next use), no goroutine lingers, and the incomplete result must
// be discarded by the caller (the evaluator checks ctx.Err()). When
// the caller imposes no deadline of its own, the cluster's Timeout
// caps the pass — a server that stops responding without closing its
// connection must never hang training. A transport failure (that
// stall included) trips the sticky BackendErr, which the evaluator
// also refuses to cache or apply results over; only the caller's own
// cancellation is exempt from poisoning the cluster.
func (c *Cluster) MatchBatch(parent context.Context, rules []*core.Rule) [][]int {
	out := make([][]int, len(rules))
	if len(rules) == 0 || c.BackendErr() != nil {
		return out
	}
	if t := c.tel; t != nil && t.reg.Tracing() {
		// One span per scatter/gather pass, opened on the caller's
		// context so the per-server rpc.matchbatch spans nest under it.
		var sp *obs.Span
		parent, sp = t.reg.ChildSpanCtx(parent, "cluster.matchbatch")
		defer sp.End()
	}
	ctx := parent
	if _, ok := parent.Deadline(); !ok && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, c.timeout)
		defer cancel()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	req := appendRules([]byte{opMatchBatch}, c.data.D, rules)
	perServer := make([][][]series.RowID, len(c.conns))
	err := c.fan(nil, func(si int) error {
		resp, err := c.conns[si].roundTrip(ctx, req)
		if err != nil {
			return err
		}
		d := &dec{b: resp}
		lists := make([][]series.RowID, len(rules))
		for w := range lists {
			lists[w] = d.idList(d.count())
		}
		if d.err != nil {
			return fmt.Errorf("%w: %s: %v", ErrTransport, c.conns[si].dial.Addr(), d.err)
		}
		perServer[si] = lists
		return nil
	})
	if parent.Err() != nil {
		return out // the caller's own cancellation: incomplete, discarded, not a fault
	}
	if err != nil {
		c.setFail(err)
		return out
	}
	// The merge is pure CPU: bound it by the CALLER's context only.
	// The internal stall timeout exists to unstick IO; were it applied
	// here, a timeout firing just after a slow-but-successful fan
	// would silently truncate the merge into nil matched sets that
	// pass every staleness check.
	parallel.ForCtx(parent, len(rules), 0, func(w int) {
		out[w] = c.mergeIDsLocked(perServer, w)
	})
	return out
}

// mergeIDsLocked unions one rule's per-server RowID answers into ascending
// global positions, via a bitmap over the merged view. Each server's
// answer is an ascending subsequence of the (ascending) merged id
// column, so a galloping cursor resumes where the previous id landed:
// near-linear for dense matched sets, logarithmic-per-id for sparse
// ones — never a full binary search per row. The bitmap sweep then
// restores global order exactly like the in-process shard merge.
// Callers hold the read lock.
func (c *Cluster) mergeIDsLocked(perServer [][][]series.RowID, w int) []int {
	total := 0
	for _, lists := range perServer {
		total += len(lists[w])
	}
	if total == 0 {
		return nil
	}
	ids := c.data.IDs
	n := c.data.Len()
	words := make([]uint64, (n+63)>>6)
	for _, lists := range perServer {
		pos := 0
		for _, id := range lists[w] {
			pos = gallop(ids, pos, id)
			if pos == len(ids) || ids[pos] != id {
				// A server answered with a row the merged view does not
				// hold: state divergence, poison the cluster.
				c.setFail(fmt.Errorf("%w: matched row id %d is not in the merged view", ErrTransport, id))
				return nil
			}
			words[pos>>6] |= 1 << (uint(pos) & 63)
			pos++
		}
	}
	return core.AppendSetBits(make([]int, 0, total), words)
}

// gallop returns the first index ≥ from whose id is ≥ target:
// exponential probing from the cursor, then a binary search within
// the bracketed range — O(1 + log gap) instead of O(log n).
func gallop(ids []series.RowID, from int, target series.RowID) int {
	bound := 1
	for from+bound < len(ids) && ids[from+bound] < target {
		bound <<= 1
	}
	hi := from + bound
	if hi > len(ids) {
		hi = len(ids)
	}
	return from + sort.Search(hi-from, func(k int) bool { return ids[from+k] >= target })
}

// ---- core.Store: lifecycle side ----

// Append adds streaming patterns: the whole chunk routes to the
// server with the fewest rows (lowest index on ties — the same
// deterministic policy the engine uses for shards), which adopts the
// cluster-assigned ascending RowIDs. The merged view grows in place.
func (c *Cluster) Append(inputs [][]float64, targets []float64) error {
	if err := c.BackendErr(); err != nil {
		return err
	}
	if len(inputs) != len(targets) {
		return fmt.Errorf("%w: Append with %d inputs but %d targets", core.ErrConfig, len(inputs), len(targets))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, row := range inputs {
		if len(row) != c.data.D {
			return fmt.Errorf("%w: Append pattern %d has width %d, want D=%d", core.ErrConfig, i, len(row), c.data.D)
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	ids := make([]series.RowID, len(inputs))
	for i := range ids {
		ids[i] = c.nextID + series.RowID(i)
	}
	si := 0
	for k, n := range c.liveBy {
		if n < c.liveBy[si] {
			si = k
		}
	}
	req := []byte{opAppend}
	req = binary.AppendUvarint(req, uint64(c.data.D))
	req = appendRows(req, inputs, targets, ids)
	ctx, cancel := c.opCtx()
	defer cancel()
	resp, err := c.conns[si].roundTrip(ctx, req)
	if err != nil {
		c.setFail(err)
		return err
	}
	d := &dec{b: resp}
	c.epochs[si] = d.u64()
	c.data.Inputs = append(c.data.Inputs, inputs...)
	c.data.Targets = append(c.data.Targets, targets...)
	c.data.IDs = append(c.data.IDs, ids...)
	for range inputs {
		c.owner = append(c.owner, int32(si))
	}
	c.liveBy[si] += len(inputs)
	c.nextID += series.RowID(len(inputs))
	c.finishMutationLocked()
	return nil
}

// Delete removes the rows with the given stable ids and returns how
// many it removed. Unknown or repeated ids are ignored. Each owner
// server deletes its share, and the merged view shrinks before Delete
// returns; the epoch bump expires every cached evaluation.
func (c *Cluster) Delete(ids []series.RowID) int {
	if len(ids) == 0 || c.BackendErr() != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(ids)
}

// deleteLocked sends each owner server its ascending share of the
// ids as one delete, then shrinks the merged view in place: the rows
// go, the rest keep their relative order. A transport failure or a
// server deleting fewer rows than asked trips the sticky BackendErr;
// the view still shrinks, so it describes what the client asked for.
// ids is not read once the view starts shrinking, so it may alias the
// view's id column. Callers hold the write lock.
func (c *Cluster) deleteLocked(ids []series.RowID) int {
	drop := make([]uint64, (c.data.Len()+63)>>6)
	perServer := make([][]series.RowID, len(c.conns))
	removed := 0
	for _, id := range ids {
		pos := c.locateLocked(id)
		if pos < 0 || drop[pos>>6]&(1<<(uint(pos)&63)) != 0 {
			continue
		}
		drop[pos>>6] |= 1 << (uint(pos) & 63)
		si := c.owner[pos]
		perServer[si] = append(perServer[si], id)
		removed++
	}
	if removed == 0 {
		return 0
	}
	var targets []int
	for si, list := range perServer {
		if len(list) > 0 {
			targets = append(targets, si)
		}
	}
	ctx, cancel := c.opCtx()
	defer cancel()
	err := c.fan(targets, func(si int) error {
		list := perServer[si]
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		resp, err := c.conns[si].roundTrip(ctx, appendIDs([]byte{opDelete}, list))
		if err != nil {
			return err
		}
		d := &dec{b: resp}
		n := int(d.uvarint())
		c.epochs[si] = d.u64()
		if d.err != nil {
			return fmt.Errorf("%w: %s: %v", ErrTransport, c.conns[si].dial.Addr(), d.err)
		}
		if n != len(list) {
			return fmt.Errorf("%w: %s: deleted %d of %d rows — state diverged", ErrTransport, c.conns[si].dial.Addr(), n, len(list))
		}
		return nil
	})
	if err != nil {
		c.setFail(err)
	}
	n := c.data.Len()
	next := 0
	for pos := 0; pos < n; pos++ {
		if drop[pos>>6]&(1<<(uint(pos)&63)) != 0 {
			continue
		}
		c.data.Inputs[next] = c.data.Inputs[pos]
		c.data.Targets[next] = c.data.Targets[pos]
		c.data.IDs[next] = c.data.IDs[pos]
		c.owner[next] = c.owner[pos]
		next++
	}
	clear(c.data.Inputs[next:])
	c.data.Inputs = c.data.Inputs[:next]
	c.data.Targets = c.data.Targets[:next]
	c.data.IDs = c.data.IDs[:next]
	c.owner = c.owner[:next]
	for si, list := range perServer {
		c.liveBy[si] -= len(list)
	}
	c.finishMutationLocked()
	return removed
}

// Window keeps only the newest n rows, removing every older one, and
// returns the number evicted. "Newest" is global insertion order
// (ascending RowID), so the verb is a delete of the merged view's
// prefix, decomposed into per-owner deletes — a per-server window
// would keep the wrong rows, since no server sees the global order.
func (c *Cluster) Window(n int) int {
	if n < 0 {
		n = 0
	}
	if c.BackendErr() != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evict := c.data.Len() - n
	if evict <= 0 {
		return 0
	}
	return c.deleteLocked(c.data.IDs[:evict])
}

// Compact does nothing and returns 0: Delete and Window already
// remove rows physically.
//
// Deprecated: kept only because core.Store still declares it for the
// end-to-end benchmark (perfbench). Do not call it.
func (c *Cluster) Compact() int { return 0 }

// Cluster must satisfy the full lifecycle-store contract plus the
// health seam the evaluator polls.
var (
	_ core.Store         = (*Cluster)(nil)
	_ core.BackendHealth = (*Cluster)(nil)
)
