// Package store is the crash-safe persistence layer under incr.Session:
// a checksummed, length-prefixed write-ahead journal of applied
// change-sets plus atomically-replaced snapshots of the session state.
//
// Durability contract (the only one the verifier needs): a record is
// either replayed exactly as written or the failure is DETECTED — a torn
// tail (the crash interrupted the last write) is truncated and replay
// continues, while a complete record with a bad checksum surfaces
// ErrCorrupt so the caller degrades to an explicit cold start. The store
// never silently misparses a record into a different change-set, because
// that is the one path that could turn a crash into a wrong verdict.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrCorrupt reports on-disk state that is damaged beyond the
// tolerated torn tail: a complete journal record whose checksum does
// not match, an implausible record length in the middle of the file, or
// a snapshot whose framing or checksum fails. Callers must treat it as
// "state unusable, start cold" — never attempt a partial restore.
var ErrCorrupt = errors.New("store: corrupt record")

// SyncPolicy selects when journal appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acked change survives
	// power loss. This is the default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: a machine crash
	// may lose the journal tail (process crashes still keep it). The
	// torn-tail tolerance makes the loss explicit, never corrupting.
	SyncNone
)

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("store: unknown fsync policy %q (want always|none)", s)
}

// Journal framing: every record is [4-byte LE payload length][4-byte LE
// CRC32 (IEEE) of the payload][payload]. Appends are a single write;
// a crash mid-write leaves a torn tail that replay detects by length.
const recHeader = 8

// maxRecord bounds a single record payload. A mid-file length beyond it
// is treated as corruption rather than an absurd allocation.
const maxRecord = 64 << 20

// Journal is an append-only record log. It is not internally
// synchronized; the owning session serializes access.
type Journal struct {
	f    *os.File
	path string
	sync SyncPolicy
	size int64
}

// DecodeRecords parses a raw journal image. It returns the replayable
// record payloads and the byte offset of the first torn (incomplete)
// frame — the offset the file should be truncated to so appends resume
// after the last good record. A complete record that fails its CRC, or
// an implausible length field that still claims to fit in the image,
// returns ErrCorrupt.
func DecodeRecords(data []byte) (records [][]byte, goodLen int64, err error) {
	off := 0
	for off+recHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord {
			if off+recHeader+n > len(data) || n < 0 {
				// Claims to extend past EOF: indistinguishable from a
				// torn write of a large record — truncate the tail.
				return records, int64(off), nil
			}
			return records, int64(off), fmt.Errorf("%w: record length %d exceeds limit at offset %d", ErrCorrupt, n, off)
		}
		if off+recHeader+n > len(data) {
			// Torn tail: the crash interrupted this write.
			return records, int64(off), nil
		}
		payload := data[off+recHeader : off+recHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, int64(off), fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		rec := make([]byte, n)
		copy(rec, payload)
		records = append(records, rec)
		off += recHeader + n
	}
	// Fewer than recHeader bytes remain: torn header.
	return records, int64(off), nil
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records, and truncates any torn tail so subsequent appends resume
// cleanly. On ErrCorrupt the file is left untouched for inspection and
// the returned journal is nil.
func OpenJournal(path string, sync SyncPolicy) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	records, goodLen, err := DecodeRecords(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if goodLen < int64(len(data)) {
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, sync: sync, size: goodLen}, records, nil
}

// Append writes one record and, under SyncAlways, forces it to stable
// storage before returning — the caller may then ack the change.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, recHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[recHeader:], payload)
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.size += int64(len(buf))
	if j.sync == SyncAlways {
		return j.f.Sync()
	}
	return nil
}

// Sync forces buffered appends to stable storage regardless of policy.
func (j *Journal) Sync() error { return j.f.Sync() }

// Size reports the journal's current length in bytes.
func (j *Journal) Size() int64 { return j.size }

// Reset truncates the journal to empty. Called after a snapshot has
// been durably written (compaction): the snapshot covers every record.
func (j *Journal) Reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.size = 0
	return j.f.Sync()
}

// Close releases the file handle. Buffered appends are synced first.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Snapshot framing: [8-byte magic][4-byte LE payload length][4-byte LE
// CRC32 of payload][payload]. Snapshots are written to a temp file,
// fsynced, and renamed into place, so a reader only ever observes the
// previous snapshot or the complete new one.
var snapMagic = []byte("VMNSNAP1")

// WriteSnapshot atomically replaces the snapshot at path with a payload,
// the concatenation of parts, written as they are (a large payload is not
// copied into one buffer); on an error it may not be durable, so the
// journal behind it must be kept.
func WriteSnapshot(path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n, crc = n+len(p), crc32.Update(crc, crc32.IEEETable, p)
	}
	hdr := binary.LittleEndian.AppendUint32(append([]byte(nil), snapMagic...), uint32(n))
	for _, p := range append([][]byte{binary.LittleEndian.AppendUint32(hdr, crc)}, parts...) {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, which is what makes a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadSnapshot returns the snapshot payload at path, (nil, nil) if no
// snapshot exists, or ErrCorrupt if the framing or checksum is damaged.
func ReadSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("%w: snapshot header damaged", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[len(snapMagic):]))
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[len(snapMagic)+8:]
	if n != len(payload) {
		return nil, fmt.Errorf("%w: snapshot length mismatch (header %d, body %d)", ErrCorrupt, n, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}
