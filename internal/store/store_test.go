package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func frame(payload []byte) []byte {
	buf := make([]byte, recHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[recHeader:], payload)
	return buf
}

func journalImage(payloads ...[]byte) []byte {
	var img []byte
	for _, p := range payloads {
		img = append(img, frame(p)...)
	}
	return img
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, recs, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := [][]byte{[]byte(`{"seq":1}`), []byte(``), []byte(`{"seq":2,"changes":[1,2,3]}`)}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// A torn tail — the crash interrupted the final write — must be
// truncated at every possible tear point, keeping all complete records.
func TestJournalTornTailEveryBoundary(t *testing.T) {
	good := [][]byte{[]byte("alpha"), []byte("beta-record")}
	base := journalImage(good...)
	tail := frame([]byte("gamma-torn"))
	for cut := 0; cut < len(tail); cut++ {
		img := append(append([]byte{}, base...), tail[:cut]...)
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path, SyncNone)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(recs) != len(good) {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(recs), len(good))
		}
		// The torn bytes must be gone and appends must resume cleanly.
		if err := j.Append([]byte("after")); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := OpenJournal(path, SyncNone)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(recs2) != len(good)+1 || !bytes.Equal(recs2[len(good)], []byte("after")) {
			t.Fatalf("cut=%d: reopen replayed %d records", cut, len(recs2))
		}
	}
}

// A bit flip anywhere inside a COMPLETE record (payload or checksum)
// must surface ErrCorrupt — never a silent misparse.
func TestJournalBitFlipIsCorrupt(t *testing.T) {
	img := journalImage([]byte("record-one-payload"), []byte("record-two-payload"))
	first := frame([]byte("record-one-payload"))
	for i := 4; i < len(first); i++ { // skip length field: a flipped length may masquerade as a torn tail
		bad := append([]byte{}, img...)
		bad[i] ^= 0x10
		_, _, err := DecodeRecords(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// Swapping two records is undetectable at the framing layer (each is
// individually valid) — the framing must still replay them cleanly and
// in file order; the session's seq-ordering check catches the swap.
func TestJournalReorderReplaysInFileOrder(t *testing.T) {
	a, b := []byte("first"), []byte("second")
	img := append(frame(b), frame(a)...)
	recs, n, err := DecodeRecords(img)
	if err != nil || n != int64(len(img)) {
		t.Fatalf("decode: %v (good %d)", err, n)
	}
	if !bytes.Equal(recs[0], b) || !bytes.Equal(recs[1], a) {
		t.Fatalf("records not in file order: %q", recs)
	}
}

func TestJournalAbsurdMidFileLength(t *testing.T) {
	img := journalImage([]byte("ok"))
	// A complete-looking record claiming > maxRecord payload that still
	// "fits" must be corruption, not an allocation.
	hdr := make([]byte, recHeader)
	binary.LittleEndian.PutUint32(hdr, uint32(maxRecord+1))
	img = append(img, hdr...)
	img = append(img, bytes.Repeat([]byte{0}, 16)...)
	_, _, err := DecodeRecords(img)
	if err != nil {
		t.Fatalf("oversize length past EOF should truncate as torn tail, got %v", err)
	}
	// Same oversize length with the bytes actually present → ErrCorrupt.
	img2 := journalImage([]byte("ok"))
	img2 = append(img2, hdr...)
	img2 = append(img2, bytes.Repeat([]byte{0}, maxRecord+1)...)
	_, _, err = DecodeRecords(img2)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize in-file length: err = %v, want ErrCorrupt", err)
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("one"))
	j.Append([]byte("two"))
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("size after reset = %d", j.Size())
	}
	j.Append([]byte("three"))
	j.Close()
	_, recs, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("three")) {
		t.Fatalf("post-reset replay = %q", recs)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.vmn")
	if got, err := ReadSnapshot(path); err != nil || got != nil {
		t.Fatalf("missing snapshot: %v %v", got, err)
	}
	payload := []byte(`{"version":1,"seq":7}`)
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Overwrite is atomic replacement.
	if err := WriteSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadSnapshot(path); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("after replace: %q", got)
	}
	// A payload written in parts is framed and read back as one.
	if err := WriteSnapshot(path, []byte(`{"version":1,`), nil, []byte(`"seq":7}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSnapshot(path); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("parts read = %q, %v", got, err)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.vmn")
	if err := WriteSnapshot(path, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for i := 0; i < len(data); i++ {
		bad := append([]byte{}, data...)
		bad[i] ^= 0x40
		os.WriteFile(path, bad, 0o644)
		if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Truncations are corrupt too (a snapshot is all-or-nothing).
	for cut := 1; cut < len(data); cut++ {
		os.WriteFile(path, data[:cut], 0o644)
		if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// A snapshot is durable once its directory is synced after the rename. When
// that cannot be done WriteSnapshot must say so — the caller compacts the
// journal behind a snapshot it was told is safe — so the step that used to
// swallow its errors is checked on its own, and the write as a whole.
func TestSnapshotDirSyncFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	gone := filepath.Join(dir, "gone")
	for _, tc := range []struct {
		name, dir string
		ok        bool
	}{{"existing directory", dir, true}, {"missing directory", gone, false}} {
		if err := syncDir(tc.dir); (err == nil) != tc.ok {
			t.Errorf("syncDir(%s) = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := WriteSnapshot(filepath.Join(gone, "snapshot.vmn"), []byte("x")); err == nil {
		t.Error("WriteSnapshot into a missing directory reported success")
	}
	if err := WriteSnapshot(filepath.Join(dir, "snapshot.vmn"), []byte("x")); err != nil {
		t.Errorf("WriteSnapshot: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatal(p, err)
	}
	if p, err := ParseSyncPolicy("none"); err != nil || p != SyncNone {
		t.Fatal(p, err)
	}
	if p, err := ParseSyncPolicy(""); err != nil || p != SyncAlways {
		t.Fatal(p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error")
	}
	if SyncAlways.String() != "always" || SyncNone.String() != "none" {
		t.Fatal("String()")
	}
}
