// Package segment implements the disk-native tier of the store: immutable
// on-disk index segments (block-compressed document rows, term vectors and
// bodies with pooled, parallel block encoding, plus link and redirect rows)
// and a CRC-framed write-ahead log for the crawl flush path. A segment is a
// colder immutable snapshot of one store shard: the same rows the
// in-memory tier holds, laid out for corpora bigger than RAM — document
// text and term vectors are fetched lazily per block, and the whole file
// is mmapped so cold start pays only footer reads, not a decode of the
// corpus. A segment stores no inverted index; the off-path postings
// readers invert a segment's term vectors in memory on first use.
//
// Every framed region carries a CRC32; a truncated or bit-flipped file
// fails with a typed *CorruptError (errors.Is(err, ErrCorrupt)), never a
// decoder panic. The one deliberate exception is the WAL tail: a final
// record cut short by a crash is normal operation and is truncated away
// silently on replay (see ReplayWAL).
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is the sentinel all corruption errors wrap; callers match it
// with errors.Is.
var ErrCorrupt = errors.New("segment: corrupt")

// CorruptError reports a structurally invalid segment or WAL region: a CRC
// mismatch, a frame shorter than its header claims, or an offset pointing
// outside the file.
type CorruptError struct {
	File    string // path, when known
	Section string // which region failed
	Detail  string
}

func (e *CorruptError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("segment: corrupt %s: %s", e.Section, e.Detail)
	}
	return fmt.Sprintf("segment: %s: corrupt %s: %s", e.File, e.Section, e.Detail)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corruptf(file, section, format string, args ...any) error {
	return &CorruptError{File: file, Section: section, Detail: fmt.Sprintf(format, args...)}
}

// enc is an append-only byte encoder. All segment and WAL payloads are
// built through it so the wire forms live in one place.
type enc struct {
	b []byte
}

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }
func (e *enc) str(s string) { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) reset()       { e.b = e.b[:0] }

// dec is a bounds-checked decoder over a byte slice. The first malformed
// read latches err; subsequent reads return zero values, so decode loops
// can run to a single error check without panicking on corrupt input.
type dec struct {
	b    []byte
	off  int
	err  error
	file string
	sect string
}

func newDec(b []byte, file, section string) *dec {
	return &dec{b: b, file: file, sect: section}
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(d.file, d.sect, format, args...)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("short u32 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("short u64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("short byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

// str decodes a length-prefixed string, copying out of the backing slice
// (segment data may be an mmap that outlives the caller's view; WAL buffers
// are reused).
func (d *dec) str() string { return string(d.strBytes()) }

// strBytes decodes a length-prefixed string without copying; valid only
// while d.b is.
func (d *dec) strBytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail("string of %d bytes overruns buffer at offset %d", n, d.off)
		return nil
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// slice returns n raw bytes without copying; valid only while d.b is.
func (d *dec) slice(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail("slice of %d bytes overruns buffer at offset %d", n, d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}
