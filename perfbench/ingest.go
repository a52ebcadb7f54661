package main

// The ingest workloads: a serve.Server wired the way cmd/dodaserve
// wires it, behind a 127.0.0.1 listener, fed by two closed-loop
// serveclient streams over at most two keep-alive connections. A
// stream sends its next batch only after Client.Feed (which always
// waits for the apply) returns.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"doda/internal/chaos"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
	"doda/internal/serve"
	"doda/internal/serveclient"
)

const (
	nodes     = 256                          // instance size: n=256, waiting, min
	batchSize = serveclient.DefaultBatchSize // interactions per batch
	streams   = 2                            // closed-loop client streams
	grace     = 60 * time.Second             // how long past the window a stuck call may take

	// warmup is untimed closed-loop traffic before the window: its
	// batches are acknowledged and checked but neither timed nor counted.
	warmup = 2 * time.Second
	// The window is cut into slices of sliceLen; the figures are medians
	// over them (see sliceMedians).
	sliceLen = 500 * time.Millisecond
)

type walMode int

const (
	walNone      walMode = iota // ephemeral: no WAL
	walDisk                     // WAL in the checkout, every append fsynced
	walPageCache                // WAL in the checkout with fsync elided: tmpfs's cost model
)

var walFsync = map[walMode]string{walNone: "none", walDisk: "real", walPageCache: "elided"}

type ingestSpec struct {
	setups    int // set-ups per run; setup_s is their median
	instances int
	maxLive   int // serve.Options.MaxLiveInstances (0 = no cap)
	wal       walMode
	zipf      bool // pick instances by Zipf(1) instead of round robin
}

var (
	ingestEphemeral = ingestSpec{setups: 51, instances: 64, wal: walNone}
	ingestDurable   = ingestSpec{setups: 5, instances: 64, wal: walDisk}
	ingestEvicting  = ingestSpec{setups: 3, instances: 1024, maxLive: 64, wal: walPageCache, zipf: true}
)

func instName(i int) string { return fmt.Sprintf("inst%04d", i) }

// batch derives batch b of instance i, a pure function of (seed, i, b)
// like cmd/dodaload's: uniform pairs that avoid the sink, so a
// "waiting" instance never terminates.
func batch(seed uint64, i int, b uint64) []seq.Interaction {
	return batchInto(make([]seq.Interaction, batchSize), seed, i, b)
}

// batchInto is batch written into its, so a stream can reuse one buffer
// and add no garbage of its own to the server's.
func batchInto(its []seq.Interaction, seed uint64, i int, b uint64) []seq.Interaction {
	src := rng.New(seed ^ uint64(i)<<32 ^ b)
	for k := range its {
		u := 1 + int(src.Uint64()%uint64(nodes-1))
		v := 1 + int(src.Uint64()%uint64(nodes-2))
		if v >= u {
			v++
		}
		its[k] = seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)}
	}
	return its
}

// pageCacheFS is the real disk with file and directory fsync elided,
// the cost model of tmpfs: writes land in memory and a sync returns at
// once. It keeps the evicting workload's WAL inside the checkout while
// taking the device out of it.
type pageCacheFS struct{ chaos.FS }

func (p pageCacheFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (p pageCacheFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	f, err := p.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (pageCacheFS) SyncDir(string) error { return nil }

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }

// retire empties a finished WAL tree of its files and moves what is
// left, a thousand instance directories for ingest-evicting, into trash
// with one rename. On ext4 mounted with online discard (measured on a
// 2-vCPU VM's virtio disk), deleting the directories made every
// following run slower — the tenth of ten back-to-back runs 45% slower
// than the first — while deleting only the files, seconds old and not
// yet allocated on disk, did not. run.sh empties the trash, before the
// build, once it holds more than 96 trees.
func retire(walRoot, trash string) error {
	if walRoot == "" {
		return nil
	}
	err := filepath.WalkDir(walRoot, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			err = os.Remove(path)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(trash, 0o755); err != nil {
		return err
	}
	dst, err := os.MkdirTemp(trash, "wal-")
	if err != nil {
		return err
	}
	return os.Rename(walRoot, filepath.Join(dst, "wal"))
}

// system is one running server plus the client that feeds it.
type system struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *serveclient.Client
}

// start builds the server the way cmd/dodaserve does (its flag
// defaults), serves it on a loopback listener, and registers every
// instance through the client. This is what setup_s times.
func (sp ingestSpec) start(ctx context.Context, walRoot string, seed uint64, rec *recorder) (*system, error) {
	var fsys chaos.FS = chaos.Disk
	if sp.wal == walPageCache {
		fsys = pageCacheFS{chaos.Disk}
	}
	if rec != nil && sp.wal != walNone {
		fsys = newTimingFS(fsys, rec, "wal", walRoot)
	}
	srv, err := serve.NewServer(serve.Options{
		Dir:              walRoot,
		FS:               fsys,
		MaxPending:       4096,
		SnapshotEvery:    1024,
		StallTimeout:     10 * time.Second,
		MaxLiveInstances: sp.maxLive,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	s := &system{srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()

	s.tr = &http.Transport{MaxIdleConnsPerHost: streams, MaxConnsPerHost: streams}
	var rt http.RoundTripper = s.tr
	if rec != nil {
		rt = tracedTransport{rec: rec, next: s.tr}
	}
	s.client = serveclient.New("http://"+ln.Addr().String(), serveclient.Options{
		HTTPClient: &http.Client{Transport: rt, Timeout: 30 * time.Second},
		Seed:       seed,
	})
	for i := 0; i < sp.instances; i++ {
		if _, err := s.client.Register(ctx, instanceConfig(i)); err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", instName(i), err)
		}
	}
	return s, nil
}

func instanceConfig(i int) serve.InstanceConfig {
	return serve.InstanceConfig{Name: instName(i), N: nodes, Algorithm: "waiting", Agg: "min"}
}

// close stops the listener and its connections, waits for Serve to
// return, and closes the server.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.tr.CloseIdleConnections()
	s.srv.Close()
}

// stream is one closed-loop client: it owns a disjoint set of instances
// and their next sequence numbers.
type stream struct {
	insts             []int
	pick              func() int // index into insts
	log               *latencyLog
	attempted, failed int64 // batches sent in the window
}

func (sp ingestSpec) newStreams(seed uint64, window time.Duration) ([]*stream, error) {
	out := make([]*stream, streams)
	per := sp.instances / streams
	for s := range out {
		log, err := newLatencyLog(window)
		if err != nil {
			for _, st := range out[:s] {
				st.log.free()
			}
			return nil, err
		}
		st := &stream{log: log}
		for k := 0; k < per; k++ {
			st.insts = append(st.insts, s*per+k)
		}
		if sp.zipf {
			w := make([]float64, per)
			for k := range w {
				w[k] = 1 / float64(k+1)
			}
			alias, err := rng.NewAlias(w)
			if err != nil {
				panic(err) // weights are positive and finite by construction
			}
			src := rng.New(seed ^ 0x21bf<<40 ^ uint64(s))
			st.pick = func() int { return alias.Draw(src) }
		} else {
			next := -1
			st.pick = func() int { next = (next + 1) % per; return next }
		}
		out[s] = st
	}
	return out, nil
}

// latencyLog holds one stream's batch latencies in the order they were
// sent, four bytes (ns) each, in memory mapped outside the Go heap: the
// log adds nothing for the garbage collector to pace by or sweep, so the
// server and client collect as they would without the benchmark, and it
// grows the process's RSS by only what it holds.
type latencyLog struct {
	buf    []byte
	n      int   // latencies held
	counts []int // latencies per slice of the window
}

func newLatencyLog(window time.Duration) (*latencyLog, error) {
	// Room for a batch every 10 µs, faster than any loopback HTTP round
	// trip. Only the pages written become resident.
	size := 4 * int(window/(10*time.Microsecond)+1)
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map latency log: %w", err)
	}
	return &latencyLog{buf: buf, counts: make([]int, (window+sliceLen-1)/sliceLen)}, nil
}

// failedMark stands for failedLatency in the log.
const failedMark = math.MaxUint32

func (l *latencyLog) add(slice int, lat time.Duration) {
	v := uint32(min(lat, failedMark-1))
	if lat == failedLatency {
		v = failedMark
	}
	binary.LittleEndian.PutUint32(l.buf[4*l.n:], v)
	l.n++
	l.counts[slice]++
}

// slices returns the latencies, one list per slice of the window.
func (l *latencyLog) slices() [][]time.Duration {
	out := make([][]time.Duration, len(l.counts))
	i := 0
	for k, c := range l.counts {
		out[k] = make([]time.Duration, c)
		for j := range out[k] {
			v := binary.LittleEndian.Uint32(l.buf[4*i:])
			out[k][j] = time.Duration(v)
			if v == failedMark {
				out[k][j] = failedLatency
			}
			i++
		}
	}
	return out
}

func (l *latencyLog) free() { _ = syscall.Munmap(l.buf) } // only the address space is at stake

func (sp ingestSpec) run(cfg runConfig, rec *recorder) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), warmup+cfg.seconds+grace)
	defer cancel()
	walRoot, probeDir := "", cfg.dir
	if sp.wal != walNone {
		walRoot = filepath.Join(cfg.dir, "wal")
		probeDir = walRoot
	}

	out := &outcome{digests: map[string]string{}}
	var sys *system
	for r := 0; r < sp.setups; r++ {
		if sys != nil {
			sys.close()
			if err := retire(walRoot, cfg.trash); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = sp.start(ctx, walRoot, cfg.seed, rec); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer func() {
		sys.close()
		// A tree that cannot be retired is deleted with the scratch
		// directory instead; only the next run's speed is at stake.
		_ = retire(walRoot, cfg.trash)
	}()
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	env, err := environment(probeDir, walFsync[sp.wal])
	if err != nil {
		return nil, err
	}
	out.env = env

	// The warm-up, then the window. The streams run straight through
	// both; they time only the batches they send inside the window.
	next := make([]uint64, sp.instances) // next seq to send per instance
	for i := range next {
		next[i] = 1
	}
	sts, err := sp.newStreams(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, st := range sts {
			st.log.free()
		}
	}()
	start := time.Now().Add(warmup)
	done := make(chan struct{}, len(sts))
	for _, st := range sts {
		go func(st *stream) {
			defer func() { done <- struct{}{} }()
			st.feed(ctx, sys.client, cfg.seed, next, start, cfg.seconds, rec)
		}(st)
	}
	time.Sleep(time.Until(start))
	rt0 := readRuntime()
	if rec != nil {
		rec.on.Store(true)
	}
	for range sts {
		<-done
	}
	out.window = time.Since(start)
	if rec != nil {
		rec.on.Store(false)
	}
	out.runtime = readRuntime().sub(rt0)
	out.maxRSSMB = maxRSSMB()
	// The figures are medians over the window's half-second slices: the
	// rate of acknowledged batches, and each slice's p50 and p90, where a
	// failed batch ranks above every success. NOTES.md says why.
	perSlice := make([][]time.Duration, len(sts[0].log.counts))
	lens := make([]time.Duration, len(perSlice))
	for _, st := range sts {
		out.attempted += st.attempted
		out.failed += st.failed
		for k, lats := range st.log.slices() {
			perSlice[k] = append(perSlice[k], lats...)
		}
	}
	for k := range lens {
		lens[k] = min(sliceLen, cfg.seconds-time.Duration(k)*sliceLen)
	}
	out.interactions = float64((out.attempted - out.failed) * batchSize)
	rate, p50, p90 := sliceMedians(perSlice, lens)
	out.throughput = rate * batchSize
	out.ackP50, out.ackP90 = p50, p90

	digest, err := sp.check(ctx, sys.client, cfg.seed, next)
	out.digests["acknowledged_batches"] = digest
	out.checkErr = err
	if rec != nil {
		if out.layers, err = ingestLayers(rec.snapshot(), out, cfg.seed, next); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// feed runs the closed loop through the warm-up and until the window
// ends. Inputs are generated between Feed calls, into one reused buffer
// (Feed encodes them before it sends); only Feed is timed. A batch sent
// in the window is logged under the slice it was sent in. A failed
// batch keeps its seq, so the next pick of that instance re-sends it.
func (st *stream) feed(ctx context.Context, c *serveclient.Client, seed uint64, next []uint64, start time.Time, window time.Duration, rec *recorder) {
	reported := false
	its := make([]seq.Interaction, batchSize)
	for ctx.Err() == nil {
		at := time.Since(start) // negative during the warm-up
		if at >= window {
			return
		}
		i := st.insts[st.pick()]
		batchInto(its, seed, i, next[i])
		name := instName(i)
		id := rec.begin(spanFeed, name, next[i])
		t0 := time.Now()
		err := c.Feed(ctx, name, its, next[i])
		lat := time.Since(t0)
		rec.end(id, 0, err != nil)
		if err == nil {
			next[i]++
		} else if !reported {
			fmt.Fprintln(os.Stderr, "perfbench: batch failed:", err)
			reported = true
		}
		if at < 0 {
			continue
		}
		st.attempted++
		if err != nil {
			st.failed++
			lat = failedLatency
		}
		st.log.add(int(at/sliceLen), lat)
	}
}

// check compares every instance's final /state with an in-process
// ephemeral server fed the same acknowledged batches — the reference
// the serve-e2e CI leg uses — and digests those batches.
func (sp ingestSpec) check(ctx context.Context, c *serveclient.Client, seed uint64, next []uint64) (string, error) {
	ref, err := serve.NewServer(serve.Options{})
	if err != nil {
		return "", err
	}
	defer ref.Close()
	h := sha256.New()
	var firstErr error
	for i := range next {
		st, err := c.State(ctx, instName(i))
		if err != nil {
			return "", fmt.Errorf("state %s: %w", instName(i), err)
		}
		got, err := json.Marshal(st)
		if err != nil {
			return "", err
		}
		want, err := referenceState(ctx, ref, seed, i, next[i], h)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(got, want) && firstErr == nil {
			firstErr = fmt.Errorf("%s: served state differs from the reference after %d batches", instName(i), next[i]-1)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), firstErr
}

// referenceState feeds batches 1..next-1 of instance i to a fresh
// instance of ref, hashing them into h, and returns its state JSON.
func referenceState(ctx context.Context, ref *serve.Server, seed uint64, i int, next uint64, h io.Writer) ([]byte, error) {
	inst, err := ref.Register(instanceConfig(i))
	if err != nil {
		return nil, err
	}
	defer ref.Remove(instName(i))
	var buf [8]byte
	for b := uint64(1); b < next; b++ {
		its := batch(seed, i, b)
		for _, it := range its {
			binary.LittleEndian.PutUint32(buf[:4], uint32(it.U))
			binary.LittleEndian.PutUint32(buf[4:], uint32(it.V))
			h.Write(buf[:])
		}
		hd, err := inst.Ingest(ctx, its, b)
		if err == nil {
			err = hd.Wait(ctx)
		}
		if err != nil {
			return nil, fmt.Errorf("reference %s batch %d: %w", instName(i), b, err)
		}
	}
	st, err := inst.State(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}
