package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"doda/internal/chaos"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/seq"
)

// Options configures a Server.
type Options struct {
	// Dir is the durability root: each instance journals into its own
	// subdirectory. Empty means ephemeral (no WAL, nothing survives a
	// restart).
	Dir string
	// FS is the write-path filesystem seam (nil = the real disk); the
	// chaos tests inject faults through it.
	FS chaos.FS
	// MaxPending bounds each instance's journaled-but-unapplied
	// interaction count — the per-instance admission budget (default
	// 4096).
	MaxPending int
	// SnapshotEvery rotates an instance's WAL after this many applied
	// interactions (default 1024).
	SnapshotEvery int
	// StallTimeout is how long an instance may hold pending work without
	// applying any of it before the watchdog flags it stalled (default
	// 10s).
	StallTimeout time.Duration
	// MaxLiveInstances caps how many instances may hold live engine
	// state at once (0 = unlimited). When a registration or rehydration
	// would exceed the cap, the least-recently-touched live instance is
	// evicted first: its state is snapshotted to the WAL, its engine
	// memory released, and it rehydrates transparently on the next
	// ingest. Requires Dir (eviction without durability would lose
	// state).
	MaxLiveInstances int
	// IdleTTL evicts instances that have seen no ingest or state read
	// for this long (0 = never). Requires Dir.
	IdleTTL time.Duration
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 1024
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 10 * time.Second
	}
	if o.FS == nil {
		o.FS = chaos.Disk
	}
}

// ErrDraining reports an operation refused because the server is
// draining.
var ErrDraining = errors.New("serve: server draining")

// Server multiplexes aggregation instances.
type Server struct {
	opt Options

	// lifeMu serializes instance lifecycle transitions (register under a
	// cap, evict, rehydrate, remove, drain-flagging). It is always taken
	// before mu and before any instance's mu, and is never held while
	// waiting on a worker that needs mu-protected state to progress —
	// evictions wait on instance queues, not on lifeMu holders.
	lifeMu sync.Mutex

	mu        sync.Mutex
	instances map[string]*Instance
	draining  bool

	watchStop chan struct{}
	watchDone chan struct{}
}

// NewServer builds a server and, when opt.Dir holds instance journals
// from a previous process, recovers every one of them before returning:
// a restarted server resumes exactly where the crash left it. With
// MaxLiveInstances set, only the first cap instances recovered are
// hydrated; the rest come up evicted and rehydrate on first touch.
func NewServer(opt Options) (*Server, error) {
	opt.fill()
	if (opt.MaxLiveInstances > 0 || opt.IdleTTL > 0) && opt.Dir == "" {
		return nil, errors.New("serve: eviction (MaxLiveInstances/IdleTTL) requires Dir: evicted state must be durable")
	}
	s := &Server{
		opt:       opt,
		instances: make(map[string]*Instance),
		watchStop: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, walDirPerm); err != nil {
			return nil, err
		}
		if err := s.recoverAll(); err != nil {
			return nil, err
		}
	}
	go s.watchdog()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// recoverAll replays every instance directory under Dir. With a live
// cap, directories past the cap are recovered cold: their WAL is
// validated and their sequence position read, but no engine is built —
// they start evicted and rehydrate on first touch.
func (s *Server) recoverAll() error {
	entries, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return err
	}
	live := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !nameRE.MatchString(name) {
			continue
		}
		hydrate := s.opt.MaxLiveInstances <= 0 || live < s.opt.MaxLiveInstances
		inst, err := s.recoverInstance(name, hydrate)
		if errors.Is(err, errNoWAL) {
			// The registration was never acknowledged, so the directory
			// holds no instance — sweep it and move on.
			s.logf("serve: sweeping %s: %v", name, err)
			if rerr := os.RemoveAll(filepath.Join(s.opt.Dir, name)); rerr != nil {
				return rerr
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("serve: recover %s: %w", name, err)
		}
		s.instances[name] = inst
		if hydrate {
			live++
			go inst.worker()
		}
	}
	return nil
}

// recoverInstance rebuilds one instance from its WAL: restore the
// snapshot, replay the journaled tail, reopen for appends. With
// hydrate=false the WAL is validated and closed again and the instance
// comes up evicted (no engine, no open journal, no worker).
func (s *Server) recoverInstance(name string, hydrate bool) (*Instance, error) {
	dir := filepath.Join(s.opt.Dir, name)
	log, rec, err := recoverWAL(s.opt.FS, dir)
	if err != nil {
		return nil, err
	}
	if rec.cfg.Name != name {
		log.close()
		return nil, fmt.Errorf("wal names instance %q, directory is %q", rec.cfg.Name, name)
	}
	lastSeq := rec.lastSeq()
	if !hydrate {
		log.close()
		inst := newInstance(s, rec.cfg, nil, nil, lastSeq, lastSeq)
		inst.state = stateEvicted
		close(inst.workerDone) // no worker is running
		s.logf("serve: recovered instance %s cold (seq %d, evicted)", name, lastSeq)
		return inst, nil
	}
	eng, err := restoreEngine(rec)
	if err != nil {
		log.close()
		return nil, err
	}
	inst := newInstance(s, rec.cfg, eng, log, lastSeq, lastSeq)
	if eng.StreamDone() {
		res, err := eng.Finish()
		if err != nil {
			log.close()
			return nil, fmt.Errorf("replay verification: %w", err)
		}
		inst.result = res
		inst.state = stateDone
	}
	s.logf("serve: recovered instance %s (seq %d, %s)", name, lastSeq, inst.state)
	return inst, nil
}

// restoreEngine builds an arena-backed engine from a recovered WAL:
// restore the snapshot, replay the journaled-but-unsnapshotted tail.
// Feed is deterministic and ignores post-done batches, so the replayed
// engine is byte-identical to the one that wrote the WAL.
func restoreEngine(rec *recovered) (*core.Engine, error) {
	cfg, alg, err := rec.cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	if cfg.Arena, err = core.NewArena(cfg.N, cfg.Provenance); err != nil {
		return nil, err
	}
	eng := &core.Engine{}
	if err := eng.RestoreStream(cfg, alg, rec.state); err != nil {
		return nil, err
	}
	for _, in := range rec.tail {
		for _, uv := range in.Its {
			if _, err := eng.Feed(seq.Interaction{U: graph.NodeID(uv[0]), V: graph.NodeID(uv[1])}); err != nil {
				return nil, fmt.Errorf("replay batch %d: %w", in.Seq, err)
			}
		}
	}
	return eng, nil
}

// maxNodes caps the node count of a registered instance. A
// full-provenance arena holds n·⌈n/64⌉ words, so an unchecked n lets one
// registration exhaust the process's memory and take every hosted
// instance down with it; at this ceiling the arena is 32 MiB.
const maxNodes = 16384

// Register creates a new aggregation instance. Under a live cap it may
// first evict the least-recently-touched live instance to make room.
func (s *Server) Register(icfg InstanceConfig) (*Instance, error) {
	if icfg.N > maxNodes {
		return nil, fmt.Errorf("serve: n=%d exceeds the limit of %d nodes per instance", icfg.N, maxNodes)
	}
	icfg = icfg.normalized()
	cfg, alg, err := icfg.engineConfig()
	if err != nil {
		return nil, err
	}
	if cfg.Arena, err = core.NewArena(cfg.N, cfg.Provenance); err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Begin(alg); err != nil {
		return nil, err
	}

	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if err := s.makeRoom(nil); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if _, ok := s.instances[icfg.Name]; ok {
		return nil, fmt.Errorf("serve: instance %q already exists", icfg.Name)
	}
	var log *wal
	if s.opt.Dir != "" {
		st, err := eng.StateSnapshot()
		if err != nil {
			return nil, err
		}
		log, err = createWAL(s.opt.FS, filepath.Join(s.opt.Dir, icfg.Name), icfg, st)
		if err != nil {
			return nil, err
		}
	}
	inst := newInstance(s, icfg, eng, log, 0, 0)
	s.instances[icfg.Name] = inst
	go inst.worker()
	return inst, nil
}

// liveInstances returns the instances currently holding an engine,
// ordered by least-recent touch.
func (s *Server) liveInstances() []*Instance {
	s.mu.Lock()
	live := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		if inst.isLive() {
			live = append(live, inst)
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, k int) bool {
		ti, tk := live[i].touched(), live[k].touched()
		if ti.Equal(tk) {
			return live[i].cfg.Name < live[k].cfg.Name
		}
		return ti.Before(tk)
	})
	return live
}

// makeRoom evicts least-recently-touched live instances until one more
// engine fits under the cap. keep (if non-nil) is never evicted — it is
// the instance being rehydrated. Caller holds lifeMu.
func (s *Server) makeRoom(keep *Instance) error {
	if s.opt.MaxLiveInstances <= 0 {
		return nil
	}
	for {
		live := s.liveInstances()
		if len(live) < s.opt.MaxLiveInstances {
			return nil
		}
		var victim *Instance
		for _, inst := range live {
			if inst != keep {
				victim = inst
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("%w: live-instance cap %d held entirely by the caller", ErrBackpressure, s.opt.MaxLiveInstances)
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.opt.StallTimeout)
		err := victim.evict(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("%w: cannot evict %s: %v", ErrBackpressure, victim.cfg.Name, err)
		}
		s.logf("serve: evicted instance %s (cap %d)", victim.cfg.Name, s.opt.MaxLiveInstances)
	}
}

// Evict forces an instance out of memory: its state is snapshotted to
// the WAL, its engine and journal released. The instance transparently
// rehydrates on the next ingest or state read. Exported for operational
// tooling and tests; the cap and IdleTTL drive the same path.
func (s *Server) Evict(name string) error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	inst, ok := s.Get(name)
	if !ok {
		return fmt.Errorf("serve: no instance %q", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.StallTimeout)
	defer cancel()
	return inst.evict(ctx)
}

// ensureLive rehydrates inst if it is evicted, evicting another
// instance first when the cap requires it. The fast path (instance is
// live) takes no lifecycle lock.
func (s *Server) ensureLive(inst *Instance) error {
	inst.mu.Lock()
	evicted := inst.state == stateEvicted
	inst.mu.Unlock()
	if !evicted {
		return nil
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	inst.mu.Lock()
	evicted = inst.state == stateEvicted
	inst.mu.Unlock()
	if !evicted {
		return nil // raced with another rehydrator; done
	}
	s.mu.Lock()
	cur, ok := s.instances[inst.cfg.Name]
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if !ok || cur != inst {
		return ErrInstanceClosed
	}
	if err := s.makeRoom(inst); err != nil {
		return err
	}
	return s.rehydrate(inst)
}

// rehydrate rebuilds an evicted instance's engine and journal from its
// WAL and restarts its worker. Caller holds lifeMu and has made room.
func (s *Server) rehydrate(inst *Instance) error {
	dir := filepath.Join(s.opt.Dir, inst.cfg.Name)
	log, rec, err := recoverWAL(s.opt.FS, dir)
	if err != nil {
		return fmt.Errorf("serve: rehydrate %s: %w", inst.cfg.Name, err)
	}
	eng, err := restoreEngine(rec)
	if err != nil {
		log.close()
		return fmt.Errorf("serve: rehydrate %s: %w", inst.cfg.Name, err)
	}
	lastSeq := rec.lastSeq()

	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.eng = eng
	inst.log = log
	inst.lastSeq = lastSeq
	inst.appliedSeq = lastSeq
	inst.appliedOps = 0
	inst.state = stateRunning
	inst.closing = false
	inst.noAdmit = false
	inst.evicting = false
	inst.stalled = false
	inst.lastMove = time.Now()
	inst.lastTouch = inst.lastMove
	inst.workerDone = make(chan struct{})
	if eng.StreamDone() {
		res, err := eng.Finish()
		if err != nil {
			// The WAL verified at eviction time; a terminal verification
			// failure here means the journal was damaged on disk since.
			inst.eng = nil
			inst.log = nil
			inst.state = stateEvicted
			log.close()
			return fmt.Errorf("serve: rehydrate %s: replay verification: %w", inst.cfg.Name, err)
		}
		inst.result = res
		inst.state = stateDone
	}
	go inst.worker()
	inst.cond.Broadcast()
	s.logf("serve: rehydrated instance %s (seq %d, %s)", inst.cfg.Name, lastSeq, inst.state)
	return nil
}

// Get returns a registered instance.
func (s *Server) Get(name string) (*Instance, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[name]
	return inst, ok
}

// Remove closes and forgets an instance; its journal directory is
// deleted, so this is the explicit "query finished, release it" call.
// Taking lifeMu keeps removal ordered against a concurrent rehydration
// of the same instance.
func (s *Server) Remove(name string) error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	inst, ok := s.instances[name]
	if ok {
		delete(s.instances, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no instance %q", name)
	}
	inst.close()
	if s.opt.Dir != "" {
		return os.RemoveAll(filepath.Join(s.opt.Dir, name))
	}
	return nil
}

// Instances lists the registered instances, name-sorted.
func (s *Server) Instances() []*Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].cfg.Name < out[k].cfg.Name })
	return out
}

// ServerStatus is the /v1/status document. Total counts every
// registered instance; Live those currently holding engine state;
// Evicted those whose state lives only in their WAL until next touch.
type ServerStatus struct {
	Draining  bool             `json:"draining,omitempty"`
	Live      int              `json:"live"`
	Evicted   int              `json:"evicted"`
	Total     int              `json:"total"`
	Instances []InstanceStatus `json:"instances"`
}

// Status snapshots every instance.
func (s *Server) Status() ServerStatus {
	s.mu.Lock()
	st := ServerStatus{Draining: s.draining}
	insts := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		insts = append(insts, inst)
	}
	s.mu.Unlock()
	sort.Slice(insts, func(i, k int) bool { return insts[i].cfg.Name < insts[k].cfg.Name })
	for _, inst := range insts {
		row := inst.Status()
		st.Instances = append(st.Instances, row)
		st.Total++
		if row.State == stateEvicted.String() {
			st.Evicted++
		} else {
			st.Live++
		}
	}
	return st
}

// Draining reports whether a drain has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// watchdog periodically flags instances that hold pending work without
// making progress — a stuck worker shows up in the status report instead
// of silently eating its queue's latency budget — and, with IdleTTL
// set, evicts instances nothing has touched for a TTL.
func (s *Server) watchdog() {
	defer close(s.watchDone)
	period := s.opt.StallTimeout
	if s.opt.IdleTTL > 0 && s.opt.IdleTTL < period {
		period = s.opt.IdleTTL
	}
	tick := time.NewTicker(period / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
		}
		for _, inst := range s.Instances() {
			inst.mu.Lock()
			if inst.state == stateRunning && inst.pendingOps > 0 &&
				time.Since(inst.lastMove) > s.opt.StallTimeout && !inst.stalled {
				inst.stalled = true
				s.logf("serve: instance %s stalled: %d pending ops, no progress for %v",
					inst.cfg.Name, inst.pendingOps, time.Since(inst.lastMove).Round(time.Millisecond))
			}
			inst.mu.Unlock()
		}
		if s.opt.IdleTTL > 0 {
			s.evictIdle()
		}
	}
}

// evictIdle evicts every live instance whose last touch is older than
// IdleTTL.
func (s *Server) evictIdle() {
	if s.Draining() {
		return
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	for _, inst := range s.liveInstances() {
		idle := time.Since(inst.touched())
		if idle < s.opt.IdleTTL {
			break // ordered by touch: the rest are fresher
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.opt.StallTimeout)
		err := inst.evict(ctx)
		cancel()
		if err != nil {
			s.logf("serve: idle eviction of %s: %v", inst.cfg.Name, err)
			continue
		}
		s.logf("serve: evicted idle instance %s (idle %v)", inst.cfg.Name, idle.Round(time.Millisecond))
	}
}

// Drain performs the graceful shutdown sequence: stop admissions (and
// registrations), flush every instance queue, take final snapshots, and
// close the journals. Bounded by ctx; instances that cannot flush in
// time report errors but the drain still closes everything.
func (s *Server) Drain(ctx context.Context) error {
	// Cycling lifeMu around the flag set guarantees no rehydration is in
	// flight once draining is visible: ensureLive re-checks the flag
	// under lifeMu.
	s.lifeMu.Lock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.lifeMu.Unlock()
		return ErrDraining
	}
	s.draining = true
	s.mu.Unlock()
	s.lifeMu.Unlock()

	var firstErr error
	for _, inst := range s.Instances() {
		if err := inst.drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(s.watchStop)
	<-s.watchDone
	return firstErr
}

// Close shuts down without flushing: journaled batches survive in the
// WAL and apply on the next start, but nothing new is accepted and
// pending handles fail. Drain is the graceful variant.
func (s *Server) Close() {
	s.lifeMu.Lock()
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.lifeMu.Unlock()
	for _, inst := range s.Instances() {
		inst.close()
	}
	if !already {
		close(s.watchStop)
		<-s.watchDone
	}
}
