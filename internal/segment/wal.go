package segment

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// WAL file layout:
//
//	header  "BWAL" | version u8
//	records [u32 payloadLen][u32 crc32(payload)][payload] ...
//
// A record is acknowledged once Append returns and Sync (or an Append with
// the sync option) has completed. Replay distinguishes two failure shapes:
// a final record whose frame extends past EOF is a torn tail — the normal
// result of a crash mid-write — and is silently dropped (the file is
// logically truncated at the last good record); a complete record whose
// CRC does not match is corruption and fails with *CorruptError.

const (
	walMagic   = "BWAL"
	walVersion = 1
	walHdrLen  = 5
	// walMaxRecord bounds a single record so a bit-flipped length field
	// cannot drive replay into a multi-gigabyte allocation.
	walMaxRecord = 1 << 28
)

// WAL is an append-only CRC-framed log. Appends are serialized; Sync makes
// everything appended so far durable.
type WAL struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64
	frame enc // scratch for a framed record: header, then payload
}

// CreateWAL creates (or truncates) a WAL at path and writes its header.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: wal create: %w", err)
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: wal create: %w", err)
	}
	return &WAL{f: f, path: path, size: int64(len(hdr))}, nil
}

// OpenWALForAppend opens an existing WAL positioned after its last good
// record; goodSize must come from ReplayWAL. Any torn tail beyond it is
// truncated away so new records never follow garbage.
func OpenWALForAppend(path string, goodSize int64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: wal open: %w", err)
	}
	if err := f.Truncate(goodSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: wal truncate: %w", err)
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: wal seek: %w", err)
	}
	return &WAL{f: f, path: path, size: goodSize}, nil
}

// Path returns the file path.
func (w *WAL) Path() string { return w.path }

// Size returns the current file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append writes one framed record with one write call. If sync is true the
// record is fsynced before Append returns — the durability point callers
// may acknowledge.
func (w *WAL) Append(payload []byte, sync bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("segment: wal: append after close")
	}
	w.frame.reset()
	w.frame.u32(uint32(len(payload)))
	w.frame.u32(crc32.ChecksumIEEE(payload))
	w.frame.raw(payload)
	if _, err := w.f.Write(w.frame.b); err != nil {
		return fmt.Errorf("segment: wal append: %w", err)
	}
	w.size += int64(len(w.frame.b))
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("segment: wal sync: %w", err)
		}
	}
	return nil
}

// Sync fsyncs the log.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("segment: wal sync: %w", err)
	}
	return nil
}

// Close fsyncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ReplayWAL streams every intact record to fn and returns the number of
// records delivered plus goodSize, the offset just past the last intact
// record. A torn tail (header or payload cut short by a crash) stops
// replay cleanly; a complete record with a CRC mismatch, a bad header, or
// an absurd length returns a *CorruptError. fn returning an error aborts
// replay with that error.
func ReplayWAL(path string, fn func(payload []byte) error) (records int, goodSize int64, err error) {
	r, err := OpenWALReaderAt(path, WALDataStart)
	if err != nil {
		// A WAL so short its header is cut off: created but never fully
		// written. Treat as empty-with-torn-tail, not corruption.
		if errors.Is(err, ErrTornWAL) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	defer r.Close()
	for {
		goodSize = r.Offset()
		payload, err := r.Next()
		if err == io.EOF || errors.Is(err, ErrTornWAL) {
			return records, goodSize, nil
		}
		if err != nil {
			return records, goodSize, err
		}
		if err := fn(payload); err != nil {
			return records, goodSize, err
		}
		records++
	}
}
