package main

// The outside-in layer trace. Every span is recorded from this
// package, around calls into a layer's public surface: the Feed call
// into serveclient, an http.RoundTripper under serveclient's
// http.Client, an http.Handler around serve's handler, and a timing
// chaos.FS handed to serve and sweepd through their FS options. The
// program itself is not instrumented.
//
// A span carries a name, start, end, parent and request id. Client-side
// spans of one ingest share the request id (instance, seq) taken from
// the ingest URL; filesystem spans carry the instance from their path
// and attach to that instance's open handler span. The closed-loop
// client keeps at most one batch in flight per instance, so that
// attachment is unambiguous. Filesystem work for an instance with no
// open handler is eviction work done inside another instance's miss:
// it waits as an orphan until the next rehydration read, whose handler
// did the evicting (serve serialises evict-then-rehydrate under one
// lifecycle lock).

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doda/internal/chaos"
)

// Span names. Filesystem spans are "<layer>.<op>", the layer being
// "wal" for serve's write-ahead log and "sweepd" for sweep checkpoints.
const (
	spanFeed      = "serveclient.feed"
	spanRoundTrip = "http.roundtrip"
	spanHandler   = "serve.handler"

	opOpen    = "open"
	opCreate  = "create_temp" // sweepd progress records
	opAppend  = "append"      // write to a file opened O_APPEND
	opWrite   = "write"       // write to a file being published
	opSync    = "sync"
	opClose   = "close"
	opRename  = "rename"
	opRemove  = "remove"
	opRead    = "read" // ReadFile: serve reads a generation only to rehydrate
	opSyncDir = "syncdir"
	opPublish = "publish" // O_EXCL .tmp create through the SyncDir after its rename
)

type span struct {
	name   string
	inst   string
	seq    uint64
	parent int // index into recorder.spans, -1 for none
	start  int64
	end    int64 // ns since the recorder's t0; -1 while open
	bytes  int64
	failed bool
	evict  bool // filesystem work for another instance inside a miss
}

func (s span) dur() int64 { return s.end - s.start }

type reqKey struct {
	inst string
	seq  uint64
}

// recorder keeps spans in memory while on; derive reads them after.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu          sync.Mutex
	spans       []span
	openFeed    map[reqKey]int
	openRT      map[reqKey]int
	openHandler map[string]int
	orphans     []int
}

func newRecorder() *recorder {
	return &recorder{
		t0:          time.Now(),
		openFeed:    make(map[reqKey]int),
		openRT:      make(map[reqKey]int),
		openHandler: make(map[string]int),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id, or -1 when the recorder is off
// (r may be nil). Client and handler spans register as the open span of
// their request; filesystem spans attach to their instance's handler.
func (r *recorder) begin(name, inst string, seq uint64) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	s := span{name: name, inst: inst, seq: seq, parent: -1, start: r.now(), end: -1}
	k := reqKey{inst, seq}
	switch name {
	case spanFeed:
		r.openFeed[k] = id
	case spanRoundTrip:
		s.parent = lookup(r.openFeed, k)
		r.openRT[k] = id
	case spanHandler:
		s.parent = lookup(r.openRT, k)
		r.openHandler[inst] = id
	default:
		if h, ok := r.openHandler[inst]; ok && inst != "" {
			s.parent = h
		} else if strings.HasPrefix(name, "wal.") {
			r.orphans = append(r.orphans, id)
		}
	}
	r.spans = append(r.spans, s)
	return id
}

func lookup(m map[reqKey]int, k reqKey) int {
	if id, ok := m[k]; ok {
		return id
	}
	return -1
}

// end closes span id with the bytes it moved.
func (r *recorder) end(id int, bytes int64, failed bool) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.end = r.now()
	s.bytes = bytes
	s.failed = failed
	// A retry can open a second span under the same key before the first
	// ends; only the span still registered may unregister.
	k := reqKey{s.inst, s.seq}
	switch {
	case s.name == spanFeed && r.openFeed[k] == id:
		delete(r.openFeed, k)
	case s.name == spanRoundTrip && r.openRT[k] == id:
		delete(r.openRT, k)
	case s.name == spanHandler && r.openHandler[s.inst] == id:
		delete(r.openHandler, s.inst)
	}
}

// claimOrphans hands the pending eviction work to the handler of inst,
// which is about to rehydrate.
func (r *recorder) claimOrphans(inst string) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.openHandler[inst]
	if !ok {
		return
	}
	for _, id := range r.orphans {
		r.spans[id].parent = h
		r.spans[id].evict = true
	}
	r.orphans = r.orphans[:0]
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanLine is one line of a written-out trace. Times are ns from the
// recorder's start; parent is the line number of the parent span, -1
// for none.
type spanLine struct {
	Name   string `json:"name"`
	Inst   string `json:"inst,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Evict  bool   `json:"evict,omitempty"`
}

// writeSpans writes spans to path as JSON lines, one per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		line := spanLine{s.name, s.inst, s.seq, s.parent, s.start, s.end, s.bytes, s.failed, s.evict}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ingestKey extracts (instance, seq) from an ingest URL.
func ingestKey(u *url.URL) (string, uint64, bool) {
	rest, ok := strings.CutPrefix(u.Path, "/v1/instances/")
	if !ok {
		return "", 0, false
	}
	inst, ok := strings.CutSuffix(rest, "/ingest")
	if !ok {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(u.Query().Get("seq"), 10, 64)
	if err != nil {
		return "", 0, false
	}
	return inst, seq, true
}

// tracedTransport times each ingest RoundTrip under serveclient.
type tracedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	inst, seq, ok := ingestKey(req.URL)
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := t.rec.begin(spanRoundTrip, inst, seq)
	resp, err := t.next.RoundTrip(req)
	t.rec.end(id, req.ContentLength, err != nil)
	return resp, err
}

// tracedHandler times each ingest request inside serve's handler.
func tracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		inst, seq, ok := ingestKey(req.URL)
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		id := rec.begin(spanHandler, inst, seq)
		next.ServeHTTP(w, req)
		rec.end(id, 0, false)
	})
}

// timingFS wraps a chaos.FS, recording each call as a "<layer>.<op>"
// span for the instance its path names under root. An O_EXCL ".tmp"
// create opens a publish span, which ends at the first SyncDir of its
// directory after the tmp file is renamed into place.
type timingFS struct {
	inner chaos.FS
	rec   *recorder
	layer string
	root  string

	mu       sync.Mutex
	creating map[string]int   // tmp path → open publish span
	renamed  map[string][]int // directory → publishes awaiting SyncDir
}

func newTimingFS(inner chaos.FS, rec *recorder, layer, root string) *timingFS {
	return &timingFS{
		inner: inner, rec: rec, layer: layer, root: root,
		creating: make(map[string]int),
		renamed:  make(map[string][]int),
	}
}

// instOf names the instance (first path element under root) a path
// belongs to; "" outside root.
func (t *timingFS) instOf(path string) string {
	rel, err := filepath.Rel(t.root, path)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return ""
	}
	first, _, _ := strings.Cut(rel, string(filepath.Separator))
	return first
}

func (t *timingFS) begin(op, path string) int {
	return t.rec.begin(t.layer+"."+op, t.instOf(path), 0)
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	pub := -1
	if flag&os.O_EXCL != 0 && strings.HasSuffix(name, ".tmp") {
		pub = t.begin(opPublish, name)
	}
	id := t.begin(opOpen, name)
	f, err := t.inner.OpenFile(name, flag, perm)
	t.rec.end(id, 0, err != nil)
	if err != nil {
		t.rec.end(pub, 0, true)
		return nil, err
	}
	if pub >= 0 {
		t.mu.Lock()
		t.creating[name] = pub
		t.mu.Unlock()
	}
	return &timingFile{fs: t, inner: f, appending: flag&os.O_APPEND != 0, pub: pub}, nil
}

func (t *timingFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	id := t.begin(opCreate, dir)
	f, err := t.inner.CreateTemp(dir, pattern)
	t.rec.end(id, 0, err != nil)
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: t, inner: f, pub: -1}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	id := t.begin(opRename, newpath)
	err := t.inner.Rename(oldpath, newpath)
	t.rec.end(id, 0, err != nil)
	t.mu.Lock()
	if pub, ok := t.creating[oldpath]; ok {
		delete(t.creating, oldpath)
		if err != nil {
			t.rec.end(pub, 0, true)
		} else {
			dir := filepath.Dir(newpath)
			t.renamed[dir] = append(t.renamed[dir], pub)
		}
	}
	t.mu.Unlock()
	return err
}

func (t *timingFS) Remove(name string) error {
	id := t.begin(opRemove, name)
	err := t.inner.Remove(name)
	t.rec.end(id, 0, err != nil)
	return err
}

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	inst := t.instOf(name)
	t.rec.claimOrphans(inst)
	id := t.rec.begin(t.layer+"."+opRead, inst, 0)
	b, err := t.inner.ReadFile(name)
	t.rec.end(id, int64(len(b)), err != nil)
	return b, err
}

func (t *timingFS) SyncDir(dir string) error {
	id := t.begin(opSyncDir, dir)
	err := t.inner.SyncDir(dir)
	t.rec.end(id, 0, err != nil)
	t.mu.Lock()
	pubs := t.renamed[dir]
	delete(t.renamed, dir)
	t.mu.Unlock()
	for _, pub := range pubs {
		t.rec.end(pub, t.published(pub), err != nil)
	}
	return err
}

// published returns the bytes written into publish span pub, which
// timingFile accumulates on the span while it is open.
func (t *timingFS) published(pub int) int64 {
	t.rec.mu.Lock()
	defer t.rec.mu.Unlock()
	return t.rec.spans[pub].bytes
}

type timingFile struct {
	fs        *timingFS
	inner     chaos.File
	appending bool
	pub       int
}

func (f *timingFile) Name() string { return f.inner.Name() }

func (f *timingFile) Write(p []byte) (int, error) {
	op := opWrite
	if f.appending {
		op = opAppend
	}
	id := f.fs.begin(op, f.inner.Name())
	n, err := f.inner.Write(p)
	f.fs.rec.end(id, int64(n), err != nil)
	if f.pub >= 0 {
		f.fs.rec.mu.Lock()
		f.fs.rec.spans[f.pub].bytes += int64(n)
		f.fs.rec.mu.Unlock()
	}
	return n, err
}

func (f *timingFile) Sync() error {
	id := f.fs.begin(opSync, f.inner.Name())
	err := f.inner.Sync()
	f.fs.rec.end(id, 0, err != nil)
	return err
}

func (f *timingFile) Close() error {
	id := f.fs.begin(opClose, f.inner.Name())
	err := f.inner.Close()
	f.fs.rec.end(id, 0, err != nil)
	return err
}

// selfTime is a span's duration minus the part of its interval its
// children cover (overlapping children count once).
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	var covered, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}
