package serve

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"time"

	"doda/internal/agg"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/seq"
)

// Sentinel errors callers branch on.
var (
	// ErrBackpressure reports a full per-instance admission budget; the
	// HTTP layer translates it to 429 Too Many Requests.
	ErrBackpressure = errors.New("serve: instance queue full, retry later")
	// ErrInstanceDone reports ingest into an instance whose aggregation
	// already finished.
	ErrInstanceDone = errors.New("serve: instance finished")
	// ErrInstanceFailed reports ingest into an instance whose worker
	// failed (panic, engine violation, or wedged log beyond recovery).
	ErrInstanceFailed = errors.New("serve: instance failed")
	// ErrInstanceClosed reports ingest into a closed (or draining)
	// instance.
	ErrInstanceClosed = errors.New("serve: instance closed")
	// ErrSequenceGap reports a stamped batch that skips ahead of the
	// journaled sequence.
	ErrSequenceGap = errors.New("serve: ingest sequence gap")
)

// InstanceConfig describes one aggregation instance. It is the WAL
// header payload, so it must stay pure data.
type InstanceConfig struct {
	// Name identifies the instance; it doubles as its directory name
	// ([a-zA-Z0-9._-]+, no leading dot).
	Name string `json:"name"`
	// N is the node count (>= 2).
	N int `json:"n"`
	// Algorithm is the aggregation algorithm: "waiting" or "gathering"
	// (the knowledge-free, snapshot-able members of the repo's registry;
	// the knowledge-backed algorithms need the future view, which a live
	// stream by definition does not have).
	Algorithm string `json:"algorithm"`
	// Agg names the aggregation function: min, max, sum or count
	// (default min).
	Agg string `json:"agg,omitempty"`
	// Sink is the sink node (default 0).
	Sink int `json:"sink,omitempty"`
	// Provenance is full, count or off (default full).
	Provenance string `json:"provenance,omitempty"`
	// MaxInteractions caps the instance's stream (default: practically
	// unbounded).
	MaxInteractions int `json:"max_interactions,omitempty"`
}

// defaultMaxInteractions stands in for "unbounded" on live streams.
const defaultMaxInteractions = int(1) << 50

var nameRE = regexp.MustCompile(`^[a-zA-Z0-9_-][a-zA-Z0-9._-]*$`)

// engineConfig resolves the serving config into a core.Config plus the
// algorithm instance.
func (c InstanceConfig) engineConfig() (core.Config, core.Algorithm, error) {
	if !nameRE.MatchString(c.Name) {
		return core.Config{}, nil, fmt.Errorf("serve: invalid instance name %q", c.Name)
	}
	var alg core.Algorithm
	switch c.Algorithm {
	case "waiting":
		alg = algorithms.Waiting{}
	case "gathering":
		alg = algorithms.NewGathering()
	default:
		return core.Config{}, nil, fmt.Errorf("serve: unknown or unservable algorithm %q (want waiting or gathering)", c.Algorithm)
	}
	var af agg.Func
	switch c.Agg {
	case "", "min":
		af = agg.Min
	case "max":
		af = agg.Max
	case "sum":
		af = agg.Sum
	case "count":
		af = agg.Count
	default:
		return core.Config{}, nil, fmt.Errorf("serve: unknown aggregation %q", c.Agg)
	}
	prov := core.ProvenanceFull
	if c.Provenance != "" {
		var err error
		prov, err = core.ParseProvenanceMode(c.Provenance)
		if err != nil {
			return core.Config{}, nil, err
		}
	}
	maxIt := c.MaxInteractions
	if maxIt == 0 {
		maxIt = defaultMaxInteractions
	}
	cfg := core.Config{
		N:               c.N,
		Sink:            graph.NodeID(c.Sink),
		Agg:             af,
		MaxInteractions: maxIt,
		Provenance:      prov,
		VerifyAggregate: true,
	}
	return cfg, alg, nil
}

// normalized returns the config with defaults made explicit, so the WAL
// header and a restart's engineConfig agree exactly.
func (c InstanceConfig) normalized() InstanceConfig {
	if c.Agg == "" {
		c.Agg = "min"
	}
	if c.Provenance == "" {
		c.Provenance = core.ProvenanceFull.String()
	}
	return c
}

// Handle acknowledges one accepted batch: Done closes when the batch has
// been applied to the engine (or the instance failed first), and Wait
// reports how it went.
type Handle struct {
	ch  chan struct{}
	err error
}

func newHandle() *Handle { return &Handle{ch: make(chan struct{})} }

// resolvedHandle is the pre-completed ack of an idempotent duplicate.
func resolvedHandle() *Handle {
	h := newHandle()
	close(h.ch)
	return h
}

// Done closes when the batch has been applied (or abandoned).
func (h *Handle) Done() <-chan struct{} { return h.ch }

// Wait blocks until the batch is applied or ctx expires.
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.ch:
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// instance state machine.
type instanceState int

const (
	stateRunning instanceState = iota
	stateDone                  // aggregation finished (terminated, failed run, or horizon)
	stateFailed                // worker panicked or infrastructure failed
	stateClosed
	stateEvicted // engine released; state lives in the WAL until next touch
)

func (s instanceState) String() string {
	switch s {
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateClosed:
		return "closed"
	case stateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ingestBatch is one queued unit of work.
type ingestBatch struct {
	seq    uint64
	its    []seq.Interaction
	handle *Handle
}

// Instance is one live aggregation: a push-mode engine, its bounded
// ingest queue, its WAL, and the worker goroutine applying batches.
type Instance struct {
	srv *Server
	cfg InstanceConfig

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the journaled-but-unapplied batch deque; pendingOps is the
	// summed interaction count in it, charged against MaxPending.
	queue      []ingestBatch
	pendingOps int
	lastSeq    uint64 // highest journaled sequence
	appliedSeq uint64 // highest applied sequence
	appliedOps int    // interactions applied since the last rotation
	totalOps   int    // interactions applied since registration
	state      instanceState
	failReason string
	stalled    bool
	noAdmit    bool // drain: reject admissions, keep applying
	closing    bool // worker should exit once the queue is empty
	evicting   bool // an eviction is flushing the queue; admissions wait
	lastMove   time.Time
	lastTouch  time.Time   // last ingest/state read; drives LRU + IdleTTL
	result     core.Result // valid once state == stateDone

	eng *core.Engine
	log *wal // nil in ephemeral mode

	workerDone chan struct{}
}

// newInstance wires an instance around an engine that is already Begun
// (fresh registration) or Restored (recovery).
func newInstance(srv *Server, cfg InstanceConfig, eng *core.Engine, log *wal, lastSeq, appliedSeq uint64) *Instance {
	inst := &Instance{
		srv:        srv,
		cfg:        cfg,
		eng:        eng,
		log:        log,
		lastSeq:    lastSeq,
		appliedSeq: appliedSeq,
		lastMove:   time.Now(),
		workerDone: make(chan struct{}),
	}
	inst.lastTouch = inst.lastMove
	inst.cond = sync.NewCond(&inst.mu)
	return inst
}

// isLive reports whether the instance currently holds engine state.
func (inst *Instance) isLive() bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.eng != nil && (inst.state == stateRunning || inst.state == stateDone)
}

// touched returns the last-touch time for LRU ordering.
func (inst *Instance) touched() time.Time {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.lastTouch
}

// Name returns the instance name.
func (inst *Instance) Name() string { return inst.cfg.Name }

// validate range-checks a batch up front so malformed input is a client
// error at admission, never a poisoned engine later.
func (inst *Instance) validate(its []seq.Interaction) error {
	if len(its) == 0 {
		return fmt.Errorf("serve: empty batch")
	}
	for _, it := range its {
		if _, ok := seq.Canon(it, inst.cfg.N); !ok {
			return fmt.Errorf("serve: interaction {%d %d} invalid for n=%d", it.U, it.V, inst.cfg.N)
		}
	}
	return nil
}

// admitLocked performs sequencing and admission under inst.mu. It
// returns (handle, true) for an idempotent duplicate, an error for a
// refused batch, or (nil, false, nil) when the batch may proceed.
func (inst *Instance) admitLocked(seqNo uint64, ops int) (*Handle, bool, error) {
	switch inst.state {
	case stateDone:
		if seqNo != 0 && seqNo <= inst.lastSeq {
			// Retry of an acknowledged batch — possibly the very batch
			// that finished the instance, whose ack was lost in flight.
			// Ack again so the exactly-once contract survives termination.
			inst.lastTouch = time.Now()
			return resolvedHandle(), true, nil
		}
		return nil, false, ErrInstanceDone
	case stateFailed:
		return nil, false, fmt.Errorf("%w: %s", ErrInstanceFailed, inst.failReason)
	case stateClosed:
		return nil, false, ErrInstanceClosed
	case stateEvicted:
		// Ingest paths rehydrate before admitting; reaching this is a
		// caller that skipped ensureLive.
		return nil, false, fmt.Errorf("serve: instance %s evicted", inst.cfg.Name)
	}
	if inst.noAdmit {
		return nil, false, ErrInstanceClosed
	}
	if seqNo != 0 {
		if seqNo <= inst.lastSeq {
			// Retry of an acknowledged batch: ack again, journal nothing.
			inst.lastTouch = time.Now()
			return resolvedHandle(), true, nil
		}
		if seqNo != inst.lastSeq+1 {
			return nil, false, fmt.Errorf("%w: got %d, journal is at %d", ErrSequenceGap, seqNo, inst.lastSeq)
		}
	}
	if inst.log != nil && inst.log.broken() {
		return nil, false, ErrWAL
	}
	if inst.pendingOps+ops > inst.srv.opt.MaxPending {
		return nil, false, ErrBackpressure
	}
	return nil, false, nil
}

// ingestLocked journals and enqueues an admitted batch. Caller holds
// inst.mu and has passed admitLocked.
func (inst *Instance) ingestLocked(seqNo uint64, its []seq.Interaction) (*Handle, error) {
	if seqNo == 0 {
		seqNo = inst.lastSeq + 1
	}
	if inst.log != nil {
		rec := walIngest{Seq: seqNo, Its: make([][2]int, len(its))}
		for i, it := range its {
			rec.Its[i] = [2]int{int(it.U), int(it.V)}
		}
		if err := inst.log.append(rec); err != nil {
			// The record may be half-written: the log is wedged until the
			// worker rewrites it. The batch was NOT acknowledged, so the
			// torn tail is dropped on recovery — semantics preserved.
			inst.cond.Broadcast() // wake the worker to rewrite
			return nil, err
		}
	}
	h := newHandle()
	inst.lastSeq = seqNo
	inst.queue = append(inst.queue, ingestBatch{seq: seqNo, its: its, handle: h})
	inst.pendingOps += len(its)
	inst.lastTouch = time.Now()
	inst.cond.Broadcast()
	return h, nil
}

// settleLocked waits out an in-flight eviction and reports whether the
// instance ended up evicted (caller must unlock, rehydrate via
// ensureLive, and retry). On false return the caller still holds the
// lock with no eviction pending, so admission checks are stable.
func (inst *Instance) settleLocked(ctx context.Context) bool {
	for inst.evicting && (ctx == nil || ctx.Err() == nil) {
		inst.cond.Wait()
	}
	return inst.state == stateEvicted
}

// TryIngest admits one batch without blocking on backpressure: a full
// queue fails fast with ErrBackpressure. seqNo stamps the batch for
// exactly-once retries (0 = server-assigned, at-least-once). The batch
// is durable when TryIngest returns; the Handle resolves when it has
// been applied. An evicted instance is transparently rehydrated first
// (TryIngest then blocks only on the rehydration itself, never on a
// full queue).
func (inst *Instance) TryIngest(its []seq.Interaction, seqNo uint64) (*Handle, error) {
	if err := inst.validate(its); err != nil {
		return nil, err
	}
	// Bounded retries: with a tiny live cap and hot contention the
	// instance can be re-evicted between rehydration and admission;
	// after a few losses surface backpressure and let the client retry.
	for attempt := 0; attempt < 8; attempt++ {
		inst.mu.Lock()
		if inst.settleLocked(nil) {
			inst.mu.Unlock()
			if err := inst.srv.ensureLive(inst); err != nil {
				return nil, err
			}
			continue
		}
		h, dup, err := inst.admitLocked(seqNo, len(its))
		if dup || err != nil {
			inst.mu.Unlock()
			return h, err
		}
		h, err = inst.ingestLocked(seqNo, its)
		inst.mu.Unlock()
		return h, err
	}
	return nil, fmt.Errorf("%w: instance thrashing in and out of memory", ErrBackpressure)
}

// Ingest admits one batch, blocking while the queue is full until a slot
// frees or ctx expires — the in-process backpressure contract. Evicted
// instances rehydrate transparently.
func (inst *Instance) Ingest(ctx context.Context, its []seq.Interaction, seqNo uint64) (*Handle, error) {
	if err := inst.validate(its); err != nil {
		return nil, err
	}
	// Wake the cond wait when ctx fires so the deadline is honored.
	stop := context.AfterFunc(ctx, func() {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
	})
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inst.mu.Lock()
		if inst.settleLocked(ctx) {
			inst.mu.Unlock()
			if err := inst.srv.ensureLive(inst); err != nil {
				return nil, err
			}
			continue
		}
		stale := false
		for !stale {
			h, dup, err := inst.admitLocked(seqNo, len(its))
			if dup {
				inst.mu.Unlock()
				return h, nil
			}
			switch {
			case err == nil:
				h, err := inst.ingestLocked(seqNo, its)
				inst.mu.Unlock()
				return h, err
			case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrWAL):
				if ctxErr := ctx.Err(); ctxErr != nil {
					inst.mu.Unlock()
					return nil, fmt.Errorf("%w (%w)", err, ctxErr)
				}
				inst.cond.Wait()
				// An eviction may have started while we waited: settle
				// and rehydrate from the top instead of admitting into
				// a vanishing engine.
				stale = inst.evicting || inst.state == stateEvicted
			default:
				inst.mu.Unlock()
				return nil, err
			}
		}
		inst.mu.Unlock()
	}
}

// worker is the instance's apply loop: dequeue, feed the engine, resolve
// handles, rotate the WAL on schedule. Panics are isolated here — the
// instance fails, the server lives.
func (inst *Instance) worker() {
	defer close(inst.workerDone)
	defer func() {
		if r := recover(); r != nil {
			inst.markFailed(fmt.Sprintf("worker panic: %v", r))
			inst.srv.logf("serve: instance %s: worker panic: %v", inst.cfg.Name, r)
		}
	}()
	for {
		inst.mu.Lock()
		for len(inst.queue) == 0 && !inst.closing &&
			!(inst.log != nil && inst.log.broken()) {
			inst.cond.Wait()
		}
		if inst.log != nil && inst.log.broken() {
			if err := inst.rotateLocked(); err != nil {
				reason := fmt.Sprintf("write-ahead log unrecoverable: %v", err)
				inst.mu.Unlock()
				inst.markFailed(reason)
				return
			}
			inst.cond.Broadcast() // admissions may resume
		}
		if len(inst.queue) == 0 {
			if inst.closing {
				inst.mu.Unlock()
				return
			}
			inst.mu.Unlock()
			continue
		}
		batch := inst.queue[0]
		inst.mu.Unlock()

		// Apply outside the lock: compute must not block admissions.
		var feedErr error
		for _, it := range batch.its {
			if _, err := inst.eng.Feed(it); err != nil {
				feedErr = err
				break
			}
		}

		inst.mu.Lock()
		// Clear the popped slot, so it cannot pin a batch slice the HTTP
		// handler recycles, and keep the backing array when the queue
		// drains.
		inst.queue[0] = ingestBatch{}
		if len(inst.queue) == 1 {
			inst.queue = inst.queue[:0]
		} else {
			inst.queue = inst.queue[1:]
		}
		inst.pendingOps -= len(batch.its)
		inst.appliedSeq = batch.seq
		inst.appliedOps += len(batch.its)
		inst.totalOps += len(batch.its)
		inst.lastMove = time.Now()
		inst.stalled = false
		// Wake blocked Ingest callers (budget freed) and State waiters
		// (queue may have flushed).
		inst.cond.Broadcast()
		if feedErr != nil {
			reason := fmt.Sprintf("engine rejected batch %d: %v", batch.seq, feedErr)
			inst.mu.Unlock()
			batch.handle.err = fmt.Errorf("%w: %s", ErrInstanceFailed, reason)
			close(batch.handle.ch)
			inst.markFailed(reason)
			return
		}
		engineDone := inst.eng.StreamDone()
		rotateNow := inst.log != nil &&
			(inst.appliedOps >= inst.srv.opt.SnapshotEvery || engineDone)
		if rotateNow {
			if err := inst.rotateLocked(); err != nil {
				reason := fmt.Sprintf("snapshot rotation: %v", err)
				inst.mu.Unlock()
				batch.handle.err = fmt.Errorf("%w: %s", ErrInstanceFailed, reason)
				close(batch.handle.ch)
				inst.markFailed(reason)
				return
			}
			inst.cond.Broadcast() // a freed budget may unblock Ingest
		}
		if engineDone && inst.state == stateRunning {
			res, err := inst.eng.Finish()
			if err != nil {
				inst.mu.Unlock()
				batch.handle.err = err
				close(batch.handle.ch)
				inst.markFailed(fmt.Sprintf("terminal verification: %v", err))
				return
			}
			inst.result = res
			inst.state = stateDone
			inst.cond.Broadcast()
		}
		inst.mu.Unlock()
		close(batch.handle.ch)
		if engineDone {
			inst.resolvePending(ErrInstanceDone)
		}
	}
}

// rotateLocked snapshots the engine and rewrites the WAL as a fresh
// generation (state + pending batches). Caller holds inst.mu; the engine
// is quiescent because only the worker mutates it and the worker is the
// caller.
func (inst *Instance) rotateLocked() error {
	st, err := inst.eng.StateSnapshot()
	if err != nil {
		return err
	}
	pending := make([]walIngest, len(inst.queue))
	for i, b := range inst.queue {
		rec := walIngest{Seq: b.seq, Its: make([][2]int, len(b.its))}
		for k, it := range b.its {
			rec.Its[k] = [2]int{int(it.U), int(it.V)}
		}
		pending[i] = rec
	}
	if err := inst.log.rotate(inst.cfg, walState{AppliedSeq: inst.appliedSeq, State: st}, pending); err != nil {
		return err
	}
	inst.appliedOps = 0
	return nil
}

// markFailed transitions the instance to failed and resolves every
// queued handle with the failure.
func (inst *Instance) markFailed(reason string) {
	inst.mu.Lock()
	if inst.state == stateRunning {
		inst.state = stateFailed
		inst.failReason = reason
	}
	inst.cond.Broadcast()
	inst.mu.Unlock()
	inst.resolvePending(fmt.Errorf("%w: %s", ErrInstanceFailed, reason))
}

// resolvePending fails (or done-acks) every still-queued handle.
func (inst *Instance) resolvePending(err error) {
	inst.mu.Lock()
	queue := inst.queue
	inst.queue = nil
	inst.pendingOps = 0
	inst.cond.Broadcast()
	inst.mu.Unlock()
	for _, b := range queue {
		b.handle.err = err
		close(b.handle.ch)
	}
}

// drain stops admissions, waits for the queue to empty (bounded by ctx),
// then stops the worker and closes the WAL after a final rotation.
func (inst *Instance) drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
	})
	defer stop()
	inst.mu.Lock()
	inst.noAdmit = true
	for len(inst.queue) > 0 && inst.state == stateRunning && ctx.Err() == nil {
		inst.cond.Wait()
	}
	flushed := len(inst.queue) == 0
	inst.closing = true
	inst.cond.Broadcast()
	done := inst.workerDone // under the lock: rehydration swaps the channel
	inst.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain of %s: %w", inst.cfg.Name, ctx.Err())
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.log != nil {
		if inst.state == stateRunning || inst.state == stateDone {
			// Final snapshot so restart resumes from the flushed state
			// without replay.
			if err := inst.rotateLocked(); err != nil {
				inst.srv.logf("serve: instance %s: final snapshot: %v", inst.cfg.Name, err)
			}
		}
		inst.log.close()
	}
	if inst.state == stateRunning {
		inst.state = stateClosed
	}
	if !flushed {
		return fmt.Errorf("serve: drain of %s: queue not empty", inst.cfg.Name)
	}
	return nil
}

// evict flushes the queue (bounded by ctx), stops the worker, makes any
// applied-but-unsnapshotted progress durable, and releases the engine
// and journal — the instance's only remaining footprint is its WAL and
// this struct. Caller holds the server's lifeMu. On a flush timeout the
// eviction aborts and the instance stays live.
//
// While evicting is set every admission path settles (waits) before
// touching the queue, so the flush cannot be outrun by new batches.
func (inst *Instance) evict(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
	})
	defer stop()

	inst.mu.Lock()
	if inst.state == stateEvicted {
		inst.mu.Unlock()
		return nil
	}
	if (inst.state != stateRunning && inst.state != stateDone) || inst.eng == nil {
		st := inst.state
		inst.mu.Unlock()
		return fmt.Errorf("serve: cannot evict %s instance %s", st, inst.cfg.Name)
	}
	if inst.log == nil {
		inst.mu.Unlock()
		return fmt.Errorf("serve: cannot evict ephemeral instance %s", inst.cfg.Name)
	}
	inst.evicting = true
	for len(inst.queue) > 0 && inst.state == stateRunning && ctx.Err() == nil {
		inst.cond.Wait()
	}
	if len(inst.queue) > 0 && inst.state == stateRunning {
		// Flush timed out: abort; the instance stays live and admissions
		// waiting on the eviction resume.
		inst.evicting = false
		inst.cond.Broadcast()
		inst.mu.Unlock()
		return fmt.Errorf("serve: evict %s: queue would not flush: %w", inst.cfg.Name, ctx.Err())
	}
	inst.closing = true
	inst.cond.Broadcast()
	ch := inst.workerDone
	inst.mu.Unlock()
	<-ch

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state != stateRunning && inst.state != stateDone {
		// The worker failed while flushing; nothing to release safely.
		inst.evicting = false
		inst.cond.Broadcast()
		return fmt.Errorf("serve: evict %s: instance %s", inst.cfg.Name, inst.state)
	}
	// Final snapshot, but only when something was applied since the last
	// rotation. Skipping it is always safe — every acknowledged batch is
	// already durable in the WAL tail and replays at rehydration — so a
	// rotation failure degrades to replay cost, never to data loss. The
	// skip also makes evicting a freshly-registered or just-rotated
	// instance write-free.
	if inst.appliedOps > 0 && !inst.log.broken() {
		if err := inst.rotateLocked(); err != nil {
			inst.srv.logf("serve: evict %s: final snapshot: %v (tail remains durable)", inst.cfg.Name, err)
		}
	}
	inst.log.close()
	inst.eng = nil
	inst.log = nil
	// The result aliases engine-owned bitsets (and through them the
	// arena); drop it so eviction actually releases the block. Rehydrate
	// recomputes it from the replayed stream.
	inst.result = core.Result{}
	inst.state = stateEvicted
	inst.closing = false
	inst.evicting = false
	inst.stalled = false
	inst.cond.Broadcast()
	return nil
}

// close shuts the instance down without flushing: pending handles fail.
func (inst *Instance) close() {
	inst.mu.Lock()
	inst.noAdmit = true
	inst.closing = true
	inst.cond.Broadcast()
	done := inst.workerDone // under the lock: rehydration swaps the channel
	inst.mu.Unlock()
	<-done
	inst.resolvePending(ErrInstanceClosed)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.log != nil {
		inst.log.close()
	}
	if inst.state == stateRunning {
		inst.state = stateClosed
	}
}

// InstanceStatus is one instance's row in the status report.
type InstanceStatus struct {
	Name       string   `json:"name"`
	State      string   `json:"state"`
	FailReason string   `json:"fail_reason,omitempty"`
	Stalled    bool     `json:"stalled,omitempty"`
	N          int      `json:"n"`
	Algorithm  string   `json:"algorithm"`
	Agg        string   `json:"agg"`
	PendingOps int      `json:"pending_ops"`
	LastSeq    uint64   `json:"last_seq"`
	AppliedSeq uint64   `json:"applied_seq"`
	AppliedOps int      `json:"applied_ops"`
	Owners     int      `json:"owners"`
	Terminated bool     `json:"terminated,omitempty"`
	SinkValue  *float64 `json:"sink_value,omitempty"`
	// MemBytes is the instance's arena footprint — the contiguous block
	// its word-backed engine state is carved from. Zero while evicted.
	MemBytes int `json:"mem_bytes,omitempty"`
}

// Status snapshots the instance for /v1/status.
func (inst *Instance) Status() InstanceStatus {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	s := InstanceStatus{
		Name:       inst.cfg.Name,
		State:      inst.state.String(),
		FailReason: inst.failReason,
		Stalled:    inst.stalled,
		N:          inst.cfg.N,
		Algorithm:  inst.cfg.Algorithm,
		Agg:        inst.cfg.Agg,
		PendingOps: inst.pendingOps,
		LastSeq:    inst.lastSeq,
		AppliedSeq: inst.appliedSeq,
		AppliedOps: inst.totalOps,
	}
	if inst.eng != nil {
		s.Owners = inst.eng.OwnerCount()
		if prov, err := core.ParseProvenanceMode(inst.cfg.Provenance); err == nil {
			s.MemBytes = core.ArenaBytes(inst.cfg.N, prov)
		}
	}
	if inst.state == stateDone && inst.result.Terminated {
		s.Terminated = true
		v := inst.result.SinkValue.Num
		s.SinkValue = &v
	}
	return s
}

// State returns the engine snapshot — the deterministic document the
// recovery tests diff. It waits for the pending queue to flush first
// (bounded by ctx) so two servers that accepted the same batches report
// the same state regardless of worker timing. Evicted instances are
// transparently rehydrated.
func (inst *Instance) State(ctx context.Context) (core.EngineState, error) {
	stop := context.AfterFunc(ctx, func() {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
	})
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			return core.EngineState{}, err
		}
		inst.mu.Lock()
		if inst.settleLocked(ctx) {
			inst.mu.Unlock()
			if err := inst.srv.ensureLive(inst); err != nil {
				return core.EngineState{}, err
			}
			continue
		}
		for len(inst.queue) > 0 && inst.state == stateRunning && !inst.evicting && ctx.Err() == nil {
			inst.cond.Wait()
		}
		if inst.evicting || inst.state == stateEvicted {
			// An eviction overtook the flush wait; settle and retry.
			inst.mu.Unlock()
			continue
		}
		if err := ctx.Err(); err != nil {
			inst.mu.Unlock()
			return core.EngineState{}, err
		}
		if inst.state == stateFailed {
			reason := inst.failReason
			inst.mu.Unlock()
			return core.EngineState{}, fmt.Errorf("%w: %s", ErrInstanceFailed, reason)
		}
		inst.lastTouch = time.Now()
		// The worker is idle (queue empty), so reading the engine is safe.
		st, err := inst.eng.StateSnapshot()
		inst.mu.Unlock()
		return st, err
	}
}

// Result returns the finished aggregation's result, rehydrating an
// evicted instance to recompute it.
func (inst *Instance) Result() (core.Result, error) {
	for attempt := 0; attempt < 8; attempt++ {
		inst.mu.Lock()
		if inst.settleLocked(nil) {
			inst.mu.Unlock()
			if err := inst.srv.ensureLive(inst); err != nil {
				return core.Result{}, err
			}
			continue
		}
		defer inst.mu.Unlock()
		switch inst.state {
		case stateDone:
			return inst.result, nil
		case stateFailed:
			return core.Result{}, fmt.Errorf("%w: %s", ErrInstanceFailed, inst.failReason)
		default:
			return core.Result{}, fmt.Errorf("serve: instance %s still running", inst.cfg.Name)
		}
	}
	return core.Result{}, fmt.Errorf("%w: instance thrashing in and out of memory", ErrBackpressure)
}
