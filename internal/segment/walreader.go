package segment

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WALDataStart is the file offset of the first record in a WAL (just past
// the magic + version header). It is the initial offset for a WALReader and
// the smallest value Offset can return.
const WALDataStart = walHdrLen

// ErrTornWAL marks a WAL record cut short by truncation: the frame header
// or payload extends past EOF. ReplayWAL treats a torn tail as the normal
// result of a crash mid-append and drops it silently; WALReader surfaces it
// as an error instead, for callers — like the frontier's spill tier — whose
// files were fully written before they are ever read, so a tear means lost
// data rather than an unacknowledged write. Errors wrapping ErrTornWAL are
// distinguishable from *CorruptError (a complete record whose CRC fails).
var ErrTornWAL = errors.New("segment: wal: torn record")

// WALReader reads a WAL's records one at a time, letting callers consume a
// prefix, remember their position via Offset, and resume later with
// OpenWALReaderAt — the incremental access ReplayWAL's all-at-once callback
// cannot provide.
type WALReader struct {
	f       *os.File
	path    string
	off     int64
	payload []byte
}

// OpenWALReaderAt opens path, validates the WAL header, and positions the
// reader at off — which must be a record boundary previously obtained from
// Offset (values below WALDataStart are clamped to the first record).
func OpenWALReaderAt(path string, off int64) (*WALReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: wal reader: %w", err)
	}
	var hdr [walHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("segment: %s: wal header cut short: %w", path, ErrTornWAL)
		}
		return nil, fmt.Errorf("segment: wal reader: %w", err)
	}
	if string(hdr[:4]) != walMagic {
		f.Close()
		return nil, corruptf(path, "wal-header", "bad magic %q", hdr[:4])
	}
	if hdr[4] != walVersion {
		f.Close()
		return nil, corruptf(path, "wal-header", "unsupported version %d", hdr[4])
	}
	if off < WALDataStart {
		off = WALDataStart
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: wal reader: %w", err)
	}
	return &WALReader{f: f, path: path, off: off}, nil
}

// Offset returns the file offset of the next unread record: a record
// boundary suitable for OpenWALReaderAt.
func (r *WALReader) Offset() int64 { return r.off }

// Path returns the file path.
func (r *WALReader) Path() string { return r.path }

// Next returns the next record's payload. io.EOF signals a clean end at a
// record boundary; a record cut short by truncation returns an error
// wrapping ErrTornWAL; a complete record with a CRC mismatch or an absurd
// length returns a *CorruptError. The returned slice is reused by the next
// call — decode it before advancing.
func (r *WALReader) Next() ([]byte, error) {
	if r.f == nil {
		return nil, errors.New("segment: wal reader: read after close")
	}
	var frame [8]byte
	if _, err := io.ReadFull(r.f, frame[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("segment: %s: record frame cut short at offset %d: %w", r.path, r.off, ErrTornWAL)
		}
		return nil, fmt.Errorf("segment: wal reader: %w", err)
	}
	d := newDec(frame[:], r.path, "wal-record")
	plen := int(d.u32())
	wantCRC := d.u32()
	if plen > walMaxRecord {
		return nil, corruptf(r.path, "wal-record", "record of %d bytes at offset %d exceeds limit", plen, r.off)
	}
	if cap(r.payload) < plen {
		r.payload = make([]byte, plen)
	}
	r.payload = r.payload[:plen]
	if _, err := io.ReadFull(r.f, r.payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("segment: %s: record payload cut short at offset %d: %w", r.path, r.off, ErrTornWAL)
		}
		return nil, fmt.Errorf("segment: wal reader: %w", err)
	}
	if got := crc32.ChecksumIEEE(r.payload); got != wantCRC {
		return nil, corruptf(r.path, "wal-record", "crc mismatch at offset %d: stored %08x computed %08x", r.off, wantCRC, got)
	}
	r.off += int64(len(frame) + plen)
	return r.payload, nil
}

// Close closes the underlying file.
func (r *WALReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
