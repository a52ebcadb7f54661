package recordlog_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"doda/internal/fleet"
	"doda/internal/recordlog"
	"doda/internal/seq"
	"doda/internal/serve"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// FuzzRecover writes hostile bytes where each durable log's recovery
// reads them — (a) a sweepd checkpoint's final segment, (b) a serve WAL
// generation beside its intact predecessor, (c) coord.log after a valid
// header — and opens each with its real consumer. Nothing may panic. An
// open that succeeds must read the same records on a second open and
// repair nothing more. A serve instance directory holding a generation
// numbered 1 or higher is never removed.
func FuzzRecover(f *testing.F) {
	ck := newCheckpointCase(f)
	wal := newWALCase(f)
	coord := newCoordCase(f)
	for _, seed := range [][]byte{ck.seed, wal.gen0, coord.seed} {
		f.Add(seed)
		f.Add(seed[:len(seed)-5])
		f.Add(append(append([]byte(nil), seed...), "0000"...))
	}
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ck.check(t, raw)
		wal.check(t, raw)
		coord.check(t, raw)
	})
}

// snapshot reads every file under dir, keyed by relative path.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// reopen runs open twice over dir and, when the first succeeds, demands
// the same view and the same bytes on disk after the second.
func reopen(t *testing.T, what, dir string, open func() (any, error)) {
	t.Helper()
	view1, err := open()
	if err != nil {
		return
	}
	disk1 := snapshot(t, dir)
	view2, err := open()
	if err != nil {
		t.Fatalf("%s: second open failed after the first succeeded: %v", what, err)
	}
	if !reflect.DeepEqual(view1, view2) {
		t.Fatalf("%s: second open read different records:\n%v\n%v", what, view1, view2)
	}
	if disk2 := snapshot(t, dir); !reflect.DeepEqual(disk1, disk2) {
		t.Fatalf("%s: second open repaired more:\n%q\n%q", what, disk1, disk2)
	}
}

func writeFiles(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	for name, raw := range files {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"waiting"},
		Sizes:      []int{4, 5, 6},
		Replicas:   1,
		Seed:       3,
	}
}

// checkpointCase holds an intact sweepd checkpoint minus its final
// segment, whose bytes seed the corpus.
type checkpointCase struct {
	grid  sweep.Grid
	front map[string][]byte
	last  string
	seed  []byte
}

func newCheckpointCase(f *testing.F) *checkpointCase {
	c := &checkpointCase{grid: tinyGrid(), front: make(map[string][]byte)}
	dir := f.TempDir()
	if _, _, err := sweepd.Run(c.grid, dir, sweepd.Options{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	for n := 0; ; n++ {
		name := fmt.Sprintf("seg-%08d.jsonl", n)
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			f.Fatal(err)
		}
		if c.seed != nil {
			c.front[c.last] = c.seed
		}
		c.last, c.seed = name, raw
	}
	return c
}

func (c *checkpointCase) check(t *testing.T, raw []byte) {
	dir := t.TempDir()
	writeFiles(t, dir, c.front)
	writeFiles(t, dir, map[string][]byte{c.last: raw})
	reopen(t, "checkpoint", dir, func() (any, error) {
		_, recs, prior, err := sweepd.OpenResume(dir, c.grid, 0, 1)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal([]any{recs, prior})
		return string(b), err
	})
}

// walCase holds an instance's intact generation 0 (header, state and two
// ingests); its bytes also seed the corpus as a generation 1.
type walCase struct {
	gen0 []byte
}

func newWALCase(f *testing.F) *walCase {
	dir := f.TempDir()
	s, err := serve.NewServer(serve.Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	inst, err := s.Register(serve.InstanceConfig{Name: "w", N: 6, Algorithm: "waiting"})
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	for b := uint64(1); b <= 2; b++ {
		h, err := inst.Ingest(ctx, []seq.Interaction{{U: 1, V: 2}, {U: 3, V: 4}}, b)
		if err == nil {
			err = h.Wait(ctx)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	// Read the live generation before Close's final rotation folds the
	// two ingests into its snapshot.
	raw, err := os.ReadFile(filepath.Join(dir, "w", "wal-00000000.jsonl"))
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	return &walCase{gen0: raw}
}

func (c *walCase) check(t *testing.T, raw []byte) {
	root := t.TempDir()
	idir := filepath.Join(root, "w")
	writeFiles(t, root, map[string][]byte{
		"w/wal-00000000.jsonl": c.gen0,
		"w/wal-00000001.jsonl": raw,
	})
	open := func() (any, error) {
		defer func() {
			if _, err := os.Stat(idir); err != nil {
				t.Fatalf("instance directory holding generation 1 removed: %v", err)
			}
		}()
		s, err := serve.NewServer(serve.Options{Dir: root})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		inst, ok := s.Get("w")
		if !ok {
			t.Fatal("recovery dropped an acknowledged instance")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st, err := inst.State(ctx)
		if err != nil {
			t.Fatalf("recovered instance unreadable: %v", err)
		}
		b, err := json.Marshal(st)
		return string(b), err
	}
	reopen(t, "wal", root, open)
}

// coordCase holds a fresh coord.log, header only; a grant and a
// completion seed the corpus.
type coordCase struct {
	grid   sweep.Grid
	header []byte
	seed   []byte
}

func newCoordCase(f *testing.F) *coordCase {
	c := &coordCase{grid: tinyGrid()}
	dir := f.TempDir()
	co, err := fleet.NewCoordinator(c.grid, fleet.CoordinatorOptions{ShardCount: 2, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	co.Close()
	if c.header, err = os.ReadFile(filepath.Join(dir, "coord.log")); err != nil {
		f.Fatal(err)
	}
	c.seed = recordlog.AppendFrame(nil, []byte(`{"kind":"grant","shard":1,"worker":"w","lease_id":"s1-e1","seq":1}`))
	c.seed = recordlog.AppendFrame(c.seed, []byte(`{"kind":"complete","shard":0,"dir":"x"}`))
	return c
}

func (c *coordCase) check(t *testing.T, raw []byte) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string][]byte{"coord.log": append(append([]byte(nil), c.header...), raw...)})
	reopen(t, "coord.log", dir, func() (any, error) {
		co, err := fleet.NewCoordinator(c.grid, fleet.CoordinatorOptions{ShardCount: 2, Dir: dir, Resume: true})
		if err != nil {
			return nil, err
		}
		defer co.Close()
		st := co.Status()
		for i := range st.Shards {
			st.Shards[i].HeartbeatAgeMs = 0
		}
		return st, nil
	})
}
