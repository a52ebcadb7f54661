package recordlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doda/internal/chaos"
)

// TestFrameGolden pins the on-disk frame: every log written by an
// earlier build must keep reading back byte for byte.
func TestFrameGolden(t *testing.T) {
	if got := string(AppendFrame(nil, []byte("{}"))); got != "297bd0aa {}\n" {
		t.Fatalf("frame of {} = %q, want %q", got, "297bd0aa {}\n")
	}
}

// FuzzDecodeLineHostile throws arbitrary bytes at the frame decoder: it
// must reject or accept but never panic, and accepted frames must carry a
// valid crc.
func FuzzDecodeLineHostile(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("00000000 {}"))
	f.Add([]byte("zzzzzzzz {}"))
	f.Add(AppendFrame(nil, []byte(`{"index":1}`)))
	f.Fuzz(func(t *testing.T, line []byte) {
		body, err := Decode(line)
		if err == nil {
			// Accepted: the body must survive a fresh encode→decode.
			line2 := AppendFrame(nil, body)
			body2, err2 := Decode(bytes.TrimSuffix(line2, []byte("\n")))
			if err2 != nil || !bytes.Equal(body, body2) {
				t.Fatalf("accepted body does not round-trip: %q (%v)", line, err2)
			}
		}
	})
}

// TestReplayTornRule pins the one torn-record rule: damage is a torn tail
// only when no byte follows it, damage followed by bytes is ErrCorrupt,
// and a consumer's rejection of an intact record is the consumer's error.
func TestReplayTornRule(t *testing.T) {
	a := AppendFrame(nil, []byte(`{"a":1}`))
	b := AppendFrame(nil, []byte(`{"b":2}`))
	bad := append([]byte(nil), b...)
	bad[2] ^= 0xff // break the crc field
	long := append(bytes.Repeat([]byte{'x'}, 64), '\n')
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name    string
		raw     []byte
		n       int
		good    int
		torn    bool
		corrupt bool
	}{
		{name: "empty", raw: nil},
		{name: "intact", raw: cat(a, b), n: 2, good: len(a) + len(b)},
		{name: "unterminated tail", raw: cat(a, b[:len(b)-1]), n: 1, good: len(a), torn: true},
		{name: "crc-damaged final record", raw: cat(a, bad), n: 1, good: len(a), torn: true},
		{name: "damage followed by bytes", raw: cat(a, bad, b), n: 1, good: len(a), corrupt: true},
		{name: "garbage after a newline", raw: cat(a, []byte("\nx")), n: 1, good: len(a), corrupt: true},
		{name: "oversized final record", raw: cat(a, long), n: 1, good: len(a), torn: true},
		{name: "oversized record followed by bytes", raw: cat(a, long, b), n: 1, good: len(a), corrupt: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := 0
			good, torn, err := Replay(bytes.NewReader(c.raw), 32, func(i int, body []byte) error {
				if i != n {
					t.Fatalf("record index %d, want %d", i, n)
				}
				n++
				return nil
			})
			if c.corrupt != errors.Is(err, ErrCorrupt) || (!c.corrupt && err != nil) {
				t.Fatalf("err = %v, want corrupt=%v", err, c.corrupt)
			}
			if n != c.n || good != int64(c.good) || torn != c.torn {
				t.Fatalf("n=%d good=%d torn=%v, want n=%d good=%d torn=%v", n, good, torn, c.n, c.good, c.torn)
			}
		})
	}
	reject := errors.New("consumer rejects")
	_, torn, err := Replay(bytes.NewReader(cat(a, b)), 0, func(i int, _ []byte) error {
		if i == 1 {
			return reject
		}
		return nil
	})
	if err != reject || torn {
		t.Fatalf("rejected final record: torn=%v err=%v, want the consumer's error as is", torn, err)
	}
}

// TestPublishRefusesLiveWriter: an existing tmp file is another live
// writer, never something to clobber.
func TestPublishRefusesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	s := Series{Prefix: "seg-", Suffix: ".jsonl"}
	tmp := filepath.Join(dir, s.Name(3)+".tmp")
	if err := os.WriteFile(tmp, []byte("other writer"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Publish(chaos.Disk, dir, s.Name(3), AppendFrame(nil, []byte("{}")))
	if err == nil || !strings.Contains(err.Error(), "another live process") {
		t.Fatalf("publish over a live tmp file: %v", err)
	}
	// List with a seam sweeps the leftover once the writer is known dead.
	if nums, err := s.List(chaos.Disk, dir); err != nil || len(nums) != 0 {
		t.Fatalf("list = %v, %v", nums, err)
	}
	if err := Publish(chaos.Disk, dir, s.Name(3), AppendFrame(nil, []byte("{}"))); err != nil {
		t.Fatal(err)
	}
	if nums, err := s.List(nil, dir); err != nil || len(nums) != 1 || nums[0] != 3 {
		t.Fatalf("list = %v, %v, want [3]", nums, err)
	}
}

// TestAppenderFailStop injects one short write: the Appender must refuse
// every append until Repair cuts the partial record away, after which
// the log replays exactly the acknowledged records.
func TestAppenderFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	a, err := Create(chaos.Disk, path, []byte(`{"n":0}`))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	ffs := chaos.NewFaultFS(nil, chaos.FSOptions{Seed: 1, WriteFail: 1, MaxFaults: 1})
	a, err = Open(ffs, path, int64(len(AppendFrame(nil, []byte(`{"n":0}`)))))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte(`{"n":1}`), true); err == nil || !a.Stopped() {
		t.Fatalf("short write: err=%v stopped=%v", err, a.Stopped())
	}
	if err := a.Append([]byte(`{"n":2}`), true); !errors.Is(err, ErrStopped) {
		t.Fatalf("append after a failed write: %v, want ErrStopped", err)
	}
	if err := a.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte(`{"n":3}`), true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendFrame(AppendFrame(nil, []byte(`{"n":0}`)), []byte(`{"n":3}`))
	if !bytes.Equal(raw, want) {
		t.Fatalf("log = %q, want %q", raw, want)
	}
	// Close is final: a late append must not reopen the file.
	a.Close()
	if err := a.Repair(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("repair after close: %v, want os.ErrClosed", err)
	}
}
