package core

// Push-mode execution: the serving layer owns the clock and feeds the
// engine one interaction at a time, instead of the engine pulling a whole
// sequence out of an Adversary. Begin/Feed/Finish share the exact step
// body the pull loops use, so a fed stream and an adversary-driven run of
// the same interactions produce identical Results (differentially
// tested). StateSnapshot/RestoreStream make a fed execution durable: the
// snapshot is a pure-data document that, restored into a fresh engine,
// continues the run byte-identically — the contract internal/serve's
// write-ahead log is built on.

import (
	"fmt"
	"sort"

	"doda/internal/agg"
	"doda/internal/bitset"
	"doda/internal/seq"
)

// stream is the engine's push-mode execution state.
type stream struct {
	alg      Algorithm
	observer Observer
	observes bool
	res      Result
	t        int
	begun    bool
	done     bool
	finished bool
}

// Begin arms the engine for push-mode execution of alg: Setup runs now,
// and each subsequent Feed plays one interaction. Like Run, a begun
// engine is consumed — Reset re-arms it. The Result's Adversary field
// reads "stream": in push mode the interaction source lives outside the
// engine.
func (e *Engine) Begin(alg Algorithm) error {
	if alg == nil {
		return fmt.Errorf("core: nil algorithm")
	}
	if e.used {
		return fmt.Errorf("core: engine already ran; Reset it (or create a new one) first")
	}
	e.used = true
	if alg.Oblivious() {
		e.env.State = nil
	}
	if err := alg.Setup(e.env); err != nil {
		return fmt.Errorf("core: setup of %s: %w", alg.Name(), err)
	}
	observer, observes := alg.(Observer)
	e.str = stream{
		alg:      alg,
		observer: observer,
		observes: observes,
		res:      Result{Algorithm: alg.Name(), Adversary: "stream", Duration: -1},
		begun:    true,
	}
	return nil
}

// Feed plays one interaction at the next time index. done latches true
// once the run is over — termination, failure, a model violation, or the
// MaxInteractions horizon — and later Feeds are ignored (still done, nil
// error), so a caller draining a queue does not need to special-case the
// boundary. The returned error reports the same engine and model
// violations Run surfaces.
func (e *Engine) Feed(it seq.Interaction) (done bool, err error) {
	if !e.str.begun {
		return false, fmt.Errorf("core: Feed before Begin")
	}
	if e.str.done {
		return true, nil
	}
	if e.str.t >= e.cfg.MaxInteractions {
		e.str.done = true
		return true, nil
	}
	canon, ok := seq.Canon(it, e.cfg.N)
	if !ok {
		e.str.done = true
		return true, fmt.Errorf("core: fed at t=%d: %w", e.str.t, seq.CanonError(it))
	}
	e.str.res.Interactions++
	var over bool
	if e.plays(canon, e.str.observes, e.cfg.Events) {
		over, err = e.step(e.str.alg, e.str.observer, e.str.observes, e.cfg.Events, canon, e.str.t, &e.str.res)
	}
	e.str.t++
	if err != nil {
		e.str.done = true
		return true, err
	}
	if over {
		e.str.done = true
	} else if e.str.t >= e.cfg.MaxInteractions {
		e.str.done = true
		over = true
	}
	return e.str.done, nil
}

// StreamDone reports whether the push-mode run is over.
func (e *Engine) StreamDone() bool { return e.str.done }

// Finish ends the push-mode run: it runs the same terminal verification
// Run performs (sink value, provenance, transmission count) and fires the
// EventSink's OnDone once. Finish is idempotent; it may also be called
// before done latches, to close an execution early (the result is then
// simply unterminated).
func (e *Engine) Finish() (Result, error) {
	if !e.str.begun {
		return Result{}, fmt.Errorf("core: Finish before Begin")
	}
	e.str.done = true
	if e.str.finished {
		return e.str.res, nil
	}
	e.str.finished = true
	if e.str.res.Terminated {
		e.str.res.SinkValue = e.data[e.cfg.Sink]
		if err := e.verify(e.str.res); err != nil {
			return e.str.res, err
		}
	}
	if e.cfg.Events != nil {
		e.cfg.Events.OnDone(e.str.res)
	}
	return e.str.res, nil
}

// ValueState is one owner's datum in an EngineState: the payload, the
// fold count, and (under full provenance) the origin node ids.
type ValueState struct {
	Num     float64 `json:"num"`
	Count   int     `json:"count"`
	Origins []int   `json:"origins,omitempty"`
}

// ResultState carries a Result's counters through JSON (SinkValue stays
// behind: it aliases engine-owned bitsets and is rebuilt by Finish).
type ResultState struct {
	Algorithm     string `json:"algorithm"`
	Terminated    bool   `json:"terminated,omitempty"`
	Failed        bool   `json:"failed,omitempty"`
	FailReason    string `json:"fail_reason,omitempty"`
	Duration      int    `json:"duration"`
	Interactions  int    `json:"interactions"`
	Transmissions int    `json:"transmissions"`
	Declined      int    `json:"declined"`
	LastGap       int    `json:"last_gap"`
}

// EngineState is a serializable snapshot of a push-mode execution:
// everything that determines how the run evolves under future Feeds and
// what Finish reports. It is pure data (no maps), so its JSON encoding is
// deterministic — two executions in the same state marshal to the same
// bytes, which is how the serving layer's recovery tests assert
// byte-identical restarts.
type EngineState struct {
	N          int    `json:"n"`
	Sink       int    `json:"sink"`
	Provenance string `json:"provenance"`
	T          int    `json:"t"`
	Done       bool   `json:"done,omitempty"`
	// Owners lists the nodes still owning data, ascending; Data[i] is
	// Owners[i]'s datum.
	Owners []int        `json:"owners"`
	Data   []ValueState `json:"data"`
	Result ResultState  `json:"result"`
}

// StateSnapshot captures the push-mode execution as pure data. Only
// oblivious algorithms are snapshottable: stateful ones keep arbitrary
// values in Env.State that no generic encoding can carry.
func (e *Engine) StateSnapshot() (EngineState, error) {
	if !e.str.begun {
		return EngineState{}, fmt.Errorf("core: StateSnapshot before Begin")
	}
	if !e.str.alg.Oblivious() {
		return EngineState{}, fmt.Errorf("core: %s is stateful; only oblivious algorithms are snapshottable", e.str.alg.Name())
	}
	st := EngineState{
		N:          e.cfg.N,
		Sink:       int(e.cfg.Sink),
		Provenance: e.cfg.Provenance.String(),
		T:          e.str.t,
		Done:       e.str.done,
		Result: ResultState{
			Algorithm:     e.str.res.Algorithm,
			Terminated:    e.str.res.Terminated,
			Failed:        e.str.res.Failed,
			FailReason:    e.str.res.FailReason,
			Duration:      e.str.res.Duration,
			Interactions:  e.str.res.Interactions,
			Transmissions: e.str.res.Transmissions,
			Declined:      e.str.res.Declined,
			LastGap:       e.str.res.LastGap,
		},
	}
	for u := 0; u < e.cfg.N; u++ {
		if !e.owns[u] {
			continue
		}
		v := ValueState{Num: e.data[u].Num, Count: e.data[u].Count}
		if e.data[u].Origins != nil {
			v.Origins = e.data[u].Origins.Members()
			sort.Ints(v.Origins)
		}
		st.Owners = append(st.Owners, u)
		st.Data = append(st.Data, v)
	}
	return st, nil
}

// RestoreStream resets the engine under cfg, Begins alg, and overwrites
// the fresh state with st, so the next Feed continues the snapshotted
// execution exactly. The snapshot must have been taken under the same
// (N, sink, provenance) configuration and an oblivious algorithm, and a
// snapshot that is not done must hold a run still going: the sink and at
// least one other node own data.
func (e *Engine) RestoreStream(cfg Config, alg Algorithm, st EngineState) error {
	if alg == nil {
		return fmt.Errorf("core: nil algorithm")
	}
	if !alg.Oblivious() {
		return fmt.Errorf("core: %s is stateful; only oblivious algorithms are restorable", alg.Name())
	}
	if st.N != cfg.N {
		return fmt.Errorf("core: snapshot is for n=%d, config has n=%d", st.N, cfg.N)
	}
	if st.Sink != int(cfg.Sink) {
		return fmt.Errorf("core: snapshot is for sink %d, config has sink %d", st.Sink, cfg.Sink)
	}
	if got := cfg.Provenance.String(); st.Provenance != got {
		return fmt.Errorf("core: snapshot provenance %q, config has %q", st.Provenance, got)
	}
	if len(st.Owners) != len(st.Data) {
		return fmt.Errorf("core: snapshot has %d owners but %d data", len(st.Owners), len(st.Data))
	}
	if err := e.Reset(cfg); err != nil {
		return err
	}
	if err := e.Begin(alg); err != nil {
		return err
	}
	full := cfg.Provenance == ProvenanceFull
	for u := 0; u < cfg.N; u++ {
		e.owns[u] = false
		e.data[u] = agg.Value{}
	}
	for i := range e.ownWords {
		e.ownWords[i] = 0
	}
	prev := -1
	for i, u := range st.Owners {
		if u < 0 || u >= cfg.N {
			return fmt.Errorf("core: snapshot owner %d out of range [0,%d)", u, cfg.N)
		}
		if u <= prev {
			return fmt.Errorf("core: snapshot owners not strictly ascending at %d", u)
		}
		prev = u
		var set *bitset.Set
		if full {
			set = e.origins[u]
			set.Clear()
			for _, o := range st.Data[i].Origins {
				if o < 0 || o >= cfg.N {
					return fmt.Errorf("core: snapshot origin %d out of range [0,%d)", o, cfg.N)
				}
				set.Add(o)
			}
		}
		e.owns[u] = true
		bitset.SetWordBit(e.ownWords, u)
		e.data[u] = agg.Value{Num: st.Data[i].Num, Count: st.Data[i].Count, Origins: set}
	}
	e.nOwn = len(st.Owners)
	// Feed skips interactions that cannot end a run the previous step
	// left going; a run latches done the moment it ends, so no execution
	// leaves a state that is over but not done.
	if !st.Done && (e.nOwn < 2 || !e.owns[cfg.Sink]) {
		return fmt.Errorf("core: snapshot is not done, yet its run is over (%d owner(s), sink owns data: %t)", e.nOwn, e.owns[cfg.Sink])
	}
	e.str.t = st.T
	e.str.done = st.Done
	e.str.res = Result{
		Algorithm:     st.Result.Algorithm,
		Adversary:     "stream",
		Terminated:    st.Result.Terminated,
		Failed:        st.Result.Failed,
		FailReason:    st.Result.FailReason,
		Duration:      st.Result.Duration,
		Interactions:  st.Result.Interactions,
		Transmissions: st.Result.Transmissions,
		Declined:      st.Result.Declined,
		LastGap:       st.Result.LastGap,
	}
	return nil
}
