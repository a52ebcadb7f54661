// Package sim is the concurrent, sharded realisation of the DODA model.
// Node state is partitioned over a small fleet of persistent shard
// workers; a scheduler goroutine plays the adversary, prescreens each
// drained batch of interactions word-parallel against the ownership
// bitset, and dispatches only the interactions that can still matter —
// the ones where both endpoints own data (every interaction, for
// observer algorithms). Within a dispatched batch the workers realise
// the paper's node-local protocol: for each interaction the shard
// owning the second endpoint reveals its control information ("nodes
// can exchange control information before deciding whether they
// transmit"), the shard owning the first endpoint decides and applies
// its side of the transfer, and the revealing shard applies the other
// side and passes the turn token on.
//
// Interactions are atomic and totally ordered in the model (a sequence
// of single-edge graphs), so an atomic turn token serialises the
// dispatched interactions; the protocol within an interaction, however,
// is genuine cross-goroutine message passing through the slot's state
// machine. The runtime produces results identical to core.Engine — the
// equivalence is tested across the scenario registry, under the race
// detector — which justifies using the fast sequential engine as the
// measurement instrument in benchmarks.
//
// Unlike its channel-rendezvous predecessor (one goroutine per node,
// one rendezvous per interaction), the worker fleet persists across
// runs: Reset re-arms the runtime the way core.Engine.Reset does,
// reusing every slice and provenance bitset, so steady-state bench
// loops allocate nothing and pay no goroutine churn. Close tears the
// fleet down; Run itself never leaks goroutines because the workers
// always park back on their wake channels before Run returns.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"doda/internal/agg"
	"doda/internal/bitset"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/seq"
)

// Config parameterises a concurrent run. Fields mirror core.Config.
type Config struct {
	N               int
	Sink            graph.NodeID
	Agg             agg.Func
	Payloads        []float64
	MaxInteractions int
	Know            *knowledge.Bundle
	// Events receives trace events from the scheduler (nil = no
	// tracing). Delivery order matches interaction order.
	Events core.EventSink
	// Provenance mirrors core.Config.Provenance: non-full modes skip
	// the per-node origin bitsets and their per-transfer unions.
	Provenance core.ProvenanceMode
	// Shards is the number of persistent shard workers node state is
	// partitioned over (0 = auto: GOMAXPROCS clamped to [2,4], never
	// more than N). Differential tests sweep it to prove the result is
	// shard-count invariant.
	Shards int
}

// Batch sizing for the scheduler's drain buffer. The buffer starts
// small — early in a run almost every interaction is between two owners
// and a prescreen against stale ownership admits them all — and grows
// quadratically in n/owners as data concentrates, because the active
// fraction of a uniform batch shrinks like (owners/n)². The cap keeps
// the slot array and prescreen mask a fixed, reusable size.
const (
	simMinBatch = 32
	simMaxBatch = 1024
)

// Runtime executes algorithms against adversaries on a persistent shard
// fleet. Like core.Engine it is single-use between Resets; unlike the
// engine it owns goroutines, so callers that are done with it should
// Close it (a GC'd un-Closed runtime leaks its workers).
type Runtime struct {
	cfg Config
	env *core.Env

	// Node state, indexed by node id. While a dispatch is in flight it
	// is owned by the shard workers (worker shardOf(u) owns entry u);
	// between dispatches ownership reverts to the scheduler. The two
	// phases are separated by the wake/done channel pair, so there is
	// never concurrent access.
	owns []bool
	data []agg.Value

	// Scheduler-side integrated view: ownWords mirrors owns as a packed
	// bitset and nOwn counts owners, both updated as dispatched slots
	// are integrated in interaction order. They back the adversary's
	// ExecView and the batch prescreen.
	ownWords []uint64
	nOwn     int
	used     bool

	// Recycled storage, engine-style: sized for the largest N seen.
	origins     []*bitset.Set
	stateBuf    []any
	defPayloads []float64
	emptyKnow   *knowledge.Bundle
	batch       []seq.Interaction
	mask        []uint64
	slots       []slot

	// Per-run bindings the workers read (published before each wake).
	alg      core.Algorithm
	observer core.Observer
	obsAll   bool
	advName  string

	// Worker fleet.
	nShards int
	spin    int
	workers []*worker
	started bool
	stopCh  chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	// turn is the batch-local serialisation token: slot i's protocol
	// may only run while turn == i.
	turn atomic.Int32
}

var _ core.ExecView = (*Runtime)(nil)

// NewRuntime validates cfg and prepares a run. Workers are spawned
// lazily on the first Run.
func NewRuntime(cfg Config) (*Runtime, error) {
	rt := &Runtime{}
	if err := rt.Reset(cfg); err != nil {
		return nil, err
	}
	return rt, nil
}

// Reset re-arms the runtime for a new run under cfg, reusing slices,
// provenance bitsets and — when the shard count is unchanged — the
// running worker fleet, so steady-state Reset+Run loops allocate
// nothing. Like core.Engine.Reset, it recycles the provenance sets a
// previous run handed out through Result.SinkValue.
func (rt *Runtime) Reset(cfg Config) error {
	if cfg.N < 2 {
		return fmt.Errorf("sim: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Sink < 0 || int(cfg.Sink) >= cfg.N {
		return fmt.Errorf("sim: sink %d out of range [0,%d)", cfg.Sink, cfg.N)
	}
	if cfg.MaxInteractions <= 0 {
		return fmt.Errorf("sim: MaxInteractions must be positive, got %d", cfg.MaxInteractions)
	}
	switch cfg.Provenance {
	case core.ProvenanceFull, core.ProvenanceCount, core.ProvenanceOff:
	default:
		return fmt.Errorf("sim: invalid provenance mode %v", cfg.Provenance)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("sim: Shards must be non-negative, got %d", cfg.Shards)
	}
	if cfg.Agg == nil {
		cfg.Agg = agg.Min
	}
	if cfg.Payloads == nil {
		if len(rt.defPayloads) != cfg.N {
			rt.defPayloads = make([]float64, cfg.N)
			for i := range rt.defPayloads {
				rt.defPayloads[i] = float64(i)
			}
		}
		cfg.Payloads = rt.defPayloads
	}
	if len(cfg.Payloads) != cfg.N {
		return fmt.Errorf("sim: %d payloads for %d nodes", len(cfg.Payloads), cfg.N)
	}
	know := cfg.Know
	if know == nil {
		if rt.emptyKnow == nil {
			var err error
			rt.emptyKnow, err = knowledge.NewBundle()
			if err != nil {
				return err
			}
		}
		know = rt.emptyKnow
	}

	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards < 2 {
			shards = 2
		}
		if shards > 4 {
			shards = 4
		}
	}
	// The involved-shard bitmask is one word; N bounds useful shards.
	if shards > 64 {
		shards = 64
	}
	if shards > cfg.N {
		shards = cfg.N
	}
	if rt.started && shards != rt.nShards {
		rt.Close()
	}
	rt.nShards = shards
	rt.spin = 0
	if runtime.GOMAXPROCS(0) > 1 {
		rt.spin = 64
	}

	if cap(rt.owns) < cfg.N {
		rt.owns = make([]bool, cfg.N)
		rt.data = make([]agg.Value, cfg.N)
		rt.origins = make([]*bitset.Set, cfg.N)
		rt.stateBuf = make([]any, cfg.N)
	}
	rt.owns = rt.owns[:cfg.N]
	rt.data = rt.data[:cfg.N]
	rt.origins = rt.origins[:cfg.N]
	rt.stateBuf = rt.stateBuf[:cfg.N]
	nw := bitset.WordsFor(cfg.N)
	if cap(rt.ownWords) < nw {
		rt.ownWords = make([]uint64, nw)
	}
	rt.ownWords = rt.ownWords[:nw]
	for i := range rt.ownWords {
		rt.ownWords[i] = ^uint64(0)
	}
	if tail := uint(cfg.N % 64); tail != 0 {
		rt.ownWords[nw-1] = (1 << tail) - 1
	}
	if len(rt.batch) == 0 {
		rt.batch = make([]seq.Interaction, simMaxBatch)
		rt.mask = make([]uint64, bitset.WordsFor(simMaxBatch))
		rt.slots = make([]slot, simMaxBatch)
	}
	if rt.env == nil {
		rt.env = &core.Env{}
	}
	rt.env.N = cfg.N
	rt.env.Sink = cfg.Sink
	rt.env.Know = know
	rt.env.State = rt.stateBuf

	full := cfg.Provenance == core.ProvenanceFull
	for u := 0; u < cfg.N; u++ {
		var set *bitset.Set
		if full {
			set = rt.origins[u]
			if set == nil || set.Cap() != cfg.N {
				set = bitset.New(cfg.N)
				rt.origins[u] = set
			} else {
				set.Clear()
			}
			set.Add(u)
		}
		rt.owns[u] = true
		rt.data[u] = agg.Value{Num: cfg.Payloads[u], Count: 1, Origins: set}
		rt.stateBuf[u] = nil
	}
	rt.cfg = cfg
	rt.nOwn = cfg.N
	rt.used = false
	return nil
}

// Close stops the worker fleet and waits for it to exit. Idempotent; a
// Closed runtime can be Reset and Run again (workers respawn lazily).
func (rt *Runtime) Close() {
	if !rt.started {
		return
	}
	close(rt.stopCh)
	rt.wg.Wait()
	rt.started = false
}

// N implements core.ExecView.
func (rt *Runtime) N() int { return rt.cfg.N }

// Sink implements core.ExecView.
func (rt *Runtime) Sink() graph.NodeID { return rt.cfg.Sink }

// Owns implements core.ExecView from the scheduler's integrated state.
func (rt *Runtime) Owns(u graph.NodeID) bool {
	if u < 0 || int(u) >= rt.cfg.N {
		return false
	}
	return bitset.TestWord(rt.ownWords, int(u))
}

// OwnerCount implements core.ExecView.
func (rt *Runtime) OwnerCount() int { return rt.nOwn }

// shardOf maps a node id to the worker owning its state.
func (rt *Runtime) shardOf(u graph.NodeID) int {
	return int(u) * rt.nShards / rt.cfg.N
}

// Run plays alg against adv on the shard fleet. As in core.Engine.Run,
// the adversary's type alone picks the path: batchable (oblivious)
// adversaries are drained through the prescreened batch path, everything
// else (every adaptive adversary) one Next at a time.
func (rt *Runtime) Run(alg core.Algorithm, adv core.Adversary) (core.Result, error) {
	if alg == nil || adv == nil {
		return core.Result{}, fmt.Errorf("sim: nil algorithm or adversary")
	}
	if rt.used {
		return core.Result{}, fmt.Errorf("sim: runtime already ran; Reset it (or create a new one) first")
	}
	rt.used = true

	// Mirror the engine: D∅ODA algorithms get no node memory.
	if alg.Oblivious() {
		rt.env.State = nil
	}
	if err := alg.Setup(rt.env); err != nil {
		return core.Result{}, fmt.Errorf("sim: setup of %s: %w", alg.Name(), err)
	}

	rt.alg = alg
	rt.observer, rt.obsAll = alg.(core.Observer)
	rt.advName = adv.Name()
	rt.ensureWorkers()

	res := core.Result{
		Algorithm: alg.Name(),
		Adversary: adv.Name(),
		Duration:  -1,
	}
	var err error
	switch a := adv.(type) {
	case core.BatchAdversary:
		err = rt.runBatchedSim(a, &res)
	default:
		err = rt.runScalarSim(adv, &res)
	}
	if err != nil {
		return res, err
	}
	if res.Terminated {
		res.SinkValue = rt.data[rt.cfg.Sink]
		if rt.cfg.Provenance != core.ProvenanceOff && res.SinkValue.Count != rt.cfg.N {
			return res, fmt.Errorf("sim: sink aggregated %d data, want %d", res.SinkValue.Count, rt.cfg.N)
		}
	}
	if rt.cfg.Events != nil {
		rt.cfg.Events.OnDone(res)
	}
	return res, nil
}

// adaptiveBatchLen sizes the next drain so that, against a uniform
// adversary, each batch carries roughly simMinBatch dispatchable
// interactions regardless of how concentrated ownership has become.
func (rt *Runtime) adaptiveBatchLen(remaining int) int {
	w := simMinBatch
	if rt.nOwn > 0 {
		r := rt.cfg.N / rt.nOwn
		w = simMinBatch * r * r
	}
	if w > simMaxBatch || w < 0 {
		w = simMaxBatch
	}
	if w > remaining {
		w = remaining
	}
	return w
}

// runScalarSim is the one-Next-per-interaction loop for adaptive
// adversaries: each interaction is played as a batch of one.
func (rt *Runtime) runScalarSim(adv core.Adversary, res *core.Result) error {
	for t := 0; t < rt.cfg.MaxInteractions; t++ {
		it, ok := adv.Next(t, rt)
		if !ok {
			return nil // adversary exhausted its (finite) sequence
		}
		rt.batch[0] = it
		stop, err := rt.playBatch(t, 1, res)
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// runBatchedSim drains an oblivious adversary through rt.batch and
// plays each drain as one prescreened dispatch.
func (rt *Runtime) runBatchedSim(ba core.BatchAdversary, res *core.Result) error {
	for t := 0; t < rt.cfg.MaxInteractions; {
		want := rt.adaptiveBatchLen(rt.cfg.MaxInteractions - t)
		got := ba.NextBatch(t, rt, rt.batch[:want])
		if got < 0 || got > want {
			return fmt.Errorf("sim: adversary %s returned %d interactions for a %d-slot batch", rt.advName, got, want)
		}
		if got == 0 {
			return nil
		}
		stop, err := rt.playBatch(t, got, res)
		if err != nil || stop {
			return err
		}
		t += got
		if got < want {
			return nil // adversary exhausted its (finite) sequence
		}
	}
	return nil
}

// playBatch validates, prescreens, dispatches and integrates one
// drained batch. It returns stop=true when the run ended inside the
// batch. A malformed interaction at position p truncates the batch: the
// valid prefix is still played (matching the engine, which plays and
// counts every interaction before the offending one) and the error is
// returned only if the run did not end earlier. runScalarSim plays each
// interaction as a batch of one.
func (rt *Runtime) playBatch(start, blen int, res *core.Result) (bool, error) {
	batch := rt.batch[:blen]
	n := rt.cfg.N
	var pendErr error
	valid := blen
	for i := range batch {
		c, ok := seq.Canon(batch[i], n)
		if !ok {
			pendErr = fmt.Errorf("sim: adversary %s at t=%d: %w", rt.advName, start+i, seq.CanonError(batch[i]))
			valid = i
			break
		}
		batch[i] = c
	}
	batch = batch[:valid]

	// Prescreen against the ownership words at batch start: monotone
	// ownership makes the screen sound for the whole batch (see
	// prescreenBoth). Observer algorithms see every interaction, so for
	// them every position is dispatched.
	active := valid
	if !rt.obsAll {
		active = prescreenBoth(rt.ownWords, batch, rt.mask)
	}

	if active > 0 {
		si := 0
		var involved uint64
		for i := range batch {
			if !rt.obsAll && !bitset.TestWord(rt.mask, i) {
				continue
			}
			us, vs := rt.shardOf(batch[i].U), rt.shardOf(batch[i].V)
			sl := &rt.slots[si]
			sl.it = batch[i]
			sl.t = start + i
			sl.uShard, sl.vShard = us, vs
			sl.decision = core.NoTransfer
			sl.bothOwned = false
			sl.takeMine, sl.gaveYours = false, false
			sl.state.Store(slotEmpty)
			involved |= 1<<uint(us) | 1<<uint(vs)
			si++
		}
		rt.dispatch(si, involved)
	}

	// Integrate in interaction order. Slots past a termination cut were
	// executed speculatively but cannot have transferred (a single
	// owner never meets another owner); past a failure cut they may
	// have, but the run is over and node state is discarded by Reset.
	si := 0
	for i := range batch {
		var d core.Decision
		var both bool
		if rt.obsAll || bitset.TestWord(rt.mask, i) {
			sl := &rt.slots[si]
			si++
			d, both = sl.decision, sl.bothOwned
		}
		if rt.integratePos(start+i, batch[i], both, d, res) {
			return true, nil
		}
	}
	return pendErr != nil, pendErr
}

// prescreenBoth computes, word-parallel over the ownership bitset, which
// interactions of batch still have both endpoints owning data. Bit i of
// mask is set iff batch[i] is "active"; tail bits beyond len(batch) are
// zeroed. It returns the number of active interactions.
//
// Ownership is monotone within a run (true → false only), so a batch
// prescreened against the state at drain time stays sound as the batch
// is consumed: an interaction screened out now can never become active
// later. Screened-out interactions still count as interactions — they
// are no-ops for every algorithm because Decide is only consulted when
// both endpoints own data — which is what makes it sound to skip their
// dispatch entirely. core.Engine skips the same interactions, one at a
// time, in its own loops (Engine.plays). Observer algorithms see every
// interaction and must not be prescreened; playBatch gates on that.
//
// mask must have at least (len(batch)+63)/64 words. words is indexed by
// node id; batch is canonical and in range.
func prescreenBoth(words []uint64, batch []seq.Interaction, mask []uint64) int {
	active := 0
	for base := 0; base < len(batch); base += 64 {
		end := len(batch) - base
		if end > 64 {
			end = 64
		}
		var m uint64
		for i := 0; i < end; i++ {
			it := batch[base+i]
			if bitset.TestWord(words, int(it.U)) && bitset.TestWord(words, int(it.V)) {
				m |= 1 << uint(i)
			}
		}
		mask[base>>6] = m
		active += bits.OnesCount64(m)
	}
	return active
}

// integratePos folds one played interaction into the scheduler's view
// and the result, emits its event, and reports whether the run is over.
func (rt *Runtime) integratePos(t int, it seq.Interaction, both bool, d core.Decision, res *core.Result) bool {
	res.Interactions++
	ev := core.Event{T: t, It: it, BothOwned: both, Decision: d}
	if both {
		if receiver, transferred := d.Receiver(it); transferred {
			sender, _ := d.Sender(it)
			bitset.ClearWordBit(rt.ownWords, int(sender))
			rt.nOwn--
			res.Transmissions++
			res.LastGap = t - res.Duration - 1
			res.Duration = t
			ev.Sender, ev.Receiver = sender, receiver
		} else {
			res.Declined++
		}
	}
	if rt.cfg.Events != nil {
		rt.cfg.Events.OnEvent(ev)
	}
	if !bitset.TestWord(rt.ownWords, int(rt.cfg.Sink)) {
		res.Failed = true
		res.FailReason = fmt.Sprintf("sink %d transmitted its data at t=%d and can never terminate", rt.cfg.Sink, t)
		return true
	}
	if rt.nOwn == 1 {
		res.Terminated = true
		return true
	}
	return false
}
