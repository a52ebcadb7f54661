// Package recordlog is the durable record log under every doda journal:
// sweepd checkpoint segments, serve write-ahead log generations and the
// fleet coordinator's coord.log. It owns the record frame, atomic file
// publish, the listing of numbered log files, one streaming replay under
// one torn-record rule, tail repair and a fail-stop appender. Every write
// goes through the chaos.FS seam, so fault injection reaches all three
// logs alike; replay reads plain bytes, which callers take from os or
// from their seam.
//
// # Frame
//
// A record is one line: 8 lowercase hex digits of the CRC-32C
// (Castagnoli) of the body, one space, the body, '\n'. Bodies are JSON,
// which never holds a raw newline, so the line is the record boundary.
//
// # Torn-record rule
//
// A record whose frame or CRC fails is a torn tail only when no byte
// follows it in the last file of its log: that is the one shape a crash
// leaves, an append or a publish cut short. Damage followed by more bytes
// is corruption (ErrCorrupt). An intact record that its consumer rejects
// is that consumer's error, never a torn tail: repairing it away would
// destroy journaled records and the evidence of how they got mixed.
package recordlog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"doda/internal/chaos"
)

// ErrCorrupt reports a damaged record that is not a torn tail.
var ErrCorrupt = errors.New("recordlog: corrupt record")

// ErrStopped reports an append refused because an earlier Write or Sync
// on the same Appender failed.
var ErrStopped = errors.New("recordlog: appends stopped after a failed write")

// castagnoli is the CRC-32C table guarding every record.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const tmpSuffix = ".tmp"

// AppendFrame appends body, framed as one record line, to dst.
func AppendFrame(dst, body []byte) []byte {
	const hex = "0123456789abcdef"
	sum := crc32.Checksum(body, castagnoli)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[sum>>shift&0xf])
	}
	dst = append(dst, ' ')
	dst = append(dst, body...)
	return append(dst, '\n')
}

// Decode checks one record line, without its '\n', and returns the
// body. Every failure wraps ErrCorrupt; Replay decides whether the
// record's position makes it a torn tail instead.
func Decode(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("%w: malformed frame", ErrCorrupt)
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: bad crc field: %v", ErrCorrupt, err)
	}
	body := line[9:]
	if got := crc32.Checksum(body, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", ErrCorrupt, want, got)
	}
	return body, nil
}

// Replay reads one log file's records from r in order and hands each
// intact body to fn with its index; the body is valid only until fn
// returns. It returns the length of the intact prefix and whether a torn
// tail followed it. A record longer than limit bytes (when limit > 0)
// counts as damaged, so replay memory stays bounded by one record. An
// error from fn stops the replay and is returned as it is.
//
// Replay sees one file. A log of several files allows a torn tail only
// in its last; its reader treats torn from any other file as corruption.
func Replay(r io.Reader, limit int, fn func(i int, body []byte) error) (good int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for i := 0; ; i++ {
		line, err := readLine(br, limit)
		if err == io.EOF {
			return good, false, nil
		}
		var body []byte
		if err == nil {
			body, err = Decode(line)
		}
		if errors.Is(err, ErrCorrupt) {
			if _, perr := br.Peek(1); perr != io.EOF {
				if perr != nil {
					return good, false, perr
				}
				return good, false, fmt.Errorf("record %d: %w", i, err)
			}
			return good, true, nil
		}
		if err != nil {
			return good, false, err
		}
		if err := fn(i, body); err != nil {
			return good, false, err
		}
		good += int64(len(line)) + 1
	}
}

// readLine reads one '\n'-terminated line and returns it without the
// '\n', aliasing br's buffer until the next read. It returns io.EOF at a
// clean end, and an ErrCorrupt for bytes that end without a '\n' or run
// past limit — after consuming them, so the caller can look past the line.
func readLine(br *bufio.Reader, limit int) ([]byte, error) {
	var line []byte
	size := 0
	for {
		chunk, err := br.ReadSlice('\n')
		size += len(chunk)
		long := limit > 0 && size > limit+1
		if err == nil && line == nil && !long {
			return chunk[:len(chunk)-1], nil
		}
		if !long {
			line = append(line, chunk...)
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case err != nil && err != io.EOF:
			return nil, err
		case long:
			return nil, fmt.Errorf("%w: record longer than %d bytes", ErrCorrupt, limit)
		case err == nil:
			return line[:len(line)-1], nil
		case size == 0:
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("%w: unterminated record", ErrCorrupt)
		}
	}
}

// Publish atomically writes data, whole record lines, as dir/name: a tmp
// file written one record per Write, fsynced, renamed into place, then
// the directory fsynced so the rename survives a power cut. A crash
// leaves either no file under name or the whole one. The tmp file is
// created O_EXCL: a log has exactly one writer and List clears a crashed
// writer's leftovers first, so an existing tmp file means a live one.
func Publish(fsys chaos.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("recordlog: %s already exists — another live process is writing this log, which has exactly one writer: %w", tmp, err)
		}
		return err
	}
	for rest := data; len(rest) > 0 && err == nil; {
		n := bytes.IndexByte(rest, '\n') + 1
		if n == 0 {
			n = len(rest)
		}
		_, err = f.Write(rest[:n])
		rest = rest[n:]
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// Series names one kind of numbered log file: Prefix, the number as
// %08d (zero-padded, so name order is number order), Suffix.
type Series struct {
	Prefix, Suffix string
}

// Name renders file number n's name.
func (s Series) Name(n int) string {
	return fmt.Sprintf("%s%08d%s", s.Prefix, n, s.Suffix)
}

// number parses a file name of the series, reporting whether it is one.
func (s Series) number(name string) (int, bool) {
	mid, ok := strings.CutPrefix(name, s.Prefix)
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, s.Suffix); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 || s.Name(n) != name {
		return 0, false
	}
	return n, true
}

// List returns the numbers of the series' files in dir, ascending; a
// missing directory reads as empty. A non-nil fsys also removes through
// it the tmp files a crashed writer left behind: those of the series'
// files and those whose names start with one of tmpPrefixes. Readers
// that must not touch a live writer's directory pass a nil fsys.
func (s Series) List(fsys chaos.FS, dir string, tmpPrefixes ...string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var nums []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if stem, ok := strings.CutSuffix(name, tmpSuffix); ok {
			if fsys != nil && s.leftover(stem, tmpPrefixes) {
				// Best effort: a leftover the next List misses only
				// costs space, and Publish's O_EXCL open reports it.
				fsys.Remove(filepath.Join(dir, name))
			}
			continue
		}
		if n, ok := s.number(name); ok {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// leftover reports whether a tmp file's stem belongs to this log.
func (s Series) leftover(stem string, tmpPrefixes []string) bool {
	if _, ok := s.number(stem); ok {
		return true
	}
	for _, p := range tmpPrefixes {
		if strings.HasPrefix(stem, p) {
			return true
		}
	}
	return false
}

// Appender appends records to one log file. It is fail-stop: after a
// failed Write or Sync it refuses every append with ErrStopped, because
// appending behind a partial record would turn a torn tail into mid-log
// corruption. Repair cuts the file back to its last intact record, after
// which appends resume. Methods are not goroutine-safe.
type Appender struct {
	fs     chaos.FS
	path   string
	f      chaos.File
	size   int64 // length of the intact prefix
	ok     bool  // false once a Write or Sync failed, until Repair
	closed bool  // Close is final: Repair will not reopen the file
}

// Create creates the log file at path, which must not exist, writes
// first as its first record, and fsyncs the file and its directory. On
// failure the half-made file is removed: nothing in it was durable.
func Create(fsys chaos.FS, path string, first []byte) (*Appender, error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	a := &Appender{fs: fsys, path: path, f: f, ok: true}
	err = a.Append(first, true)
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	return a, nil
}

// Open opens the log file at path for appending after its first size
// bytes, the intact prefix Replay measured; a torn tail past them is cut
// off first. The Appender is returned even when Open fails, stopped, so
// an owner can hold it until Repair succeeds.
func Open(fsys chaos.FS, path string, size int64) (*Appender, error) {
	a := &Appender{fs: fsys, path: path, size: size}
	return a, a.Repair()
}

// Append writes body as one record with a single Write and, when sync is
// set, fsyncs it. An error means the record is not durable and must not
// be acknowledged; the Appender then stops until Repair.
func (a *Appender) Append(body []byte, sync bool) error {
	if !a.ok {
		return ErrStopped
	}
	line := AppendFrame(nil, body)
	if _, err := a.f.Write(line); err != nil {
		a.ok = false
		return err
	}
	if sync {
		if err := a.f.Sync(); err != nil {
			a.ok = false
			return err
		}
	}
	a.size += int64(len(line))
	return nil
}

// Stopped reports whether appends are refused until Repair.
func (a *Appender) Stopped() bool { return !a.ok }

// Repair cuts the file back to its intact prefix, reopens it for
// appending and fsyncs the cut; appends then resume. chaos.FS has no
// truncate, so the cut goes to the file by path, and the fsync through
// the seam makes it durable.
func (a *Appender) Repair() error {
	if a.closed {
		return os.ErrClosed
	}
	a.ok = false
	if a.f != nil {
		a.f.Close()
		a.f = nil
	}
	fi, err := os.Stat(a.path)
	if err != nil {
		return err
	}
	if fi.Size() < a.size {
		return fmt.Errorf("recordlog: %s holds %d bytes, fewer than its %d-byte intact prefix", a.path, fi.Size(), a.size)
	}
	cut := fi.Size() > a.size
	if cut {
		if err := os.Truncate(a.path, a.size); err != nil {
			return err
		}
	}
	f, err := a.fs.OpenFile(a.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if cut {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	a.f, a.ok = f, true
	return nil
}

// Close releases the file for good: appends and Repair are refused.
func (a *Appender) Close() error {
	a.ok, a.closed = false, true
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
