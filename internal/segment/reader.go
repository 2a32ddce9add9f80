package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Reader is an open immutable segment. Open reads the footer and the block
// tables; the postings are inverted from the term vectors on first use and
// cached. A Reader is safe for concurrent use.
type Reader struct {
	path   string
	f      *os.File
	data   []byte
	unmap  func() error
	size   int64
	ft     footer
	tables [numSections]blockTable

	// The term vectors inverted, on the first postings read. Concurrent
	// first reads compute the same value; last store wins.
	inverted atomic.Pointer[invertedIndex]

	// blockCache holds the most recently inflated block of the termvec and
	// text sections — snapshot builds and hydration walk neighboring
	// positions, so one block of locality captures most repeat access.
	cacheMu    sync.Mutex
	blockCache [numSections]cachedBlock
}

// blockTable is a block section's table: block i starts at offs[i] and
// holds rows [ends[i-1], ends[i]) of the section.
type blockTable struct {
	offs []uint64
	ends []int
}

func (t *blockTable) first(i int) int {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

func (t *blockTable) rows(i int) int { return t.ends[i] - t.first(i) }

type cachedBlock struct {
	lo     int // position of the block's first row
	raw    []byte
	starts []uint32 // offset of each row in raw, then the end of the last (nil = empty)
}

// invertedIndex maps each term of a segment to its (seq, tf) list, in
// ascending seq order.
type invertedIndex map[string]*[]posting

type posting struct {
	seq int64
	tf  int
}

// Open maps path and parses its footer. It returns a *CorruptError (via
// ErrCorrupt) for truncated or bit-flipped files.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: open: %w", err)
	}
	size := st.Size()
	minFile := int64(len(magic) + 1 + 4 + 4 + len(magic)) // header + footerLen + trailing magic
	if size < minFile {
		f.Close()
		return nil, corruptf(path, "file", "only %d bytes, smaller than any segment", size)
	}
	data, unmap, err := mapFile(f, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Reader{path: path, f: f, data: data, unmap: unmap, size: size}
	err = r.parseFooter()
	if err == nil {
		err = r.parseTables()
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseFooter() error {
	d := r.data
	if string(d[:4]) != magic {
		return corruptf(r.path, "header", "bad magic %q", d[:4])
	}
	if d[4] != version {
		return corruptf(r.path, "header", "unsupported format version %d (this release reads version %d)", d[4], version)
	}
	tail := d[len(d)-8:]
	if string(tail[4:]) != magic {
		return corruptf(r.path, "footer", "bad trailing magic %q", tail[4:])
	}
	dd := newDec(tail[:4], r.path, "footer")
	footerLen := int(dd.u32())
	if footerLen <= 0 || int64(footerLen)+8 > r.size {
		return corruptf(r.path, "footer", "footer length %d out of range", footerLen)
	}
	fb := d[len(d)-8-footerLen : len(d)-8]
	fd := newDec(fb, r.path, "footer")
	for s := 0; s < numSections; s++ {
		r.ft.sections[s].off = fd.u64()
		r.ft.sections[s].len = fd.u64()
		r.ft.sections[s].blocks = fd.u32()
	}
	r.ft.docCount = fd.u32()
	r.ft.minSeq = int64(fd.u64())
	r.ft.maxSeq = int64(fd.u64())
	r.ft.outLinks = fd.u32()
	r.ft.redirs = fd.u32()
	r.ft.shard = fd.u32()
	crcOff := fd.off
	want := fd.u32()
	if fd.err != nil {
		return fd.err
	}
	if got := crc32.ChecksumIEEE(fb[:crcOff]); got != want {
		return corruptf(r.path, "footer", "crc mismatch: stored %08x computed %08x", want, got)
	}
	for s := 0; s < numSections; s++ {
		sec := r.ft.sections[s]
		if sec.off+sec.len > uint64(r.size) {
			return corruptf(r.path, sectionName[s], "section [%d,+%d) beyond file size %d", sec.off, sec.len, r.size)
		}
	}
	return nil
}

// Close unmaps and closes the file. Outstanding reads must have completed.
func (r *Reader) Close() error {
	var err error
	if r.unmap != nil {
		err = r.unmap()
		r.unmap = nil
	}
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
	}
	return err
}

// Path returns the file path the reader was opened from.
func (r *Reader) Path() string { return r.path }

// Bytes returns the segment file size.
func (r *Reader) Bytes() int64 { return r.size }

// DocCount returns the number of documents stored.
func (r *Reader) DocCount() int { return int(r.ft.docCount) }

// MinSeq and MaxSeq bound the shard-local sequence numbers stored; every
// doc seq satisfies MinSeq ≤ seq ≤ MaxSeq and segments of one shard cover
// disjoint ranges.
func (r *Reader) MinSeq() int64 { return r.ft.minSeq }
func (r *Reader) MaxSeq() int64 { return r.ft.maxSeq }

// Shard returns the store shard index the segment belongs to.
func (r *Reader) Shard() int { return int(r.ft.shard) }

func (r *Reader) sectionBytes(s int) []byte {
	sec := r.ft.sections[s]
	return r.data[sec.off : sec.off+sec.len]
}

// parseTables reads and CRC-checks every block section's table. Each block
// must hold at least one row and the rows must add up to the footer's
// count for the section. The three document sections must block their rows
// identically.
func (r *Reader) parseTables() error {
	for s := 0; s < numSections; s++ {
		total := int(r.ft.docCount)
		switch s {
		case secLinks:
			total = int(r.ft.outLinks)
		case secRedirects:
			total = int(r.ft.redirs)
		}
		sec := r.ft.sections[s]
		count := int(sec.blocks)
		tableLen := 4 + count*12 + 4
		if uint64(tableLen) > sec.len {
			return corruptf(r.path, sectionName[s], "block table of %d entries larger than section", count)
		}
		b := r.sectionBytes(s)
		tb := b[len(b)-tableLen:]
		want := newDec(tb[len(tb)-4:], r.path, sectionName[s]).u32()
		if got := crc32.ChecksumIEEE(tb[:len(tb)-4]); got != want {
			return corruptf(r.path, sectionName[s], "block table crc mismatch: stored %08x computed %08x", want, got)
		}
		d := newDec(tb[:len(tb)-4], r.path, sectionName[s])
		if got := int(d.u32()); got != count {
			return corruptf(r.path, sectionName[s], "block table count %d != footer %d", got, count)
		}
		t := blockTable{offs: make([]uint64, count), ends: make([]int, count)}
		n := 0
		for i := range t.offs {
			t.offs[i] = d.u64()
			rows := int(d.u32())
			if rows <= 0 || rows > total-n {
				return corruptf(r.path, sectionName[s], "block %d holds %d rows with %d of %d left", i, rows, total-n, total)
			}
			n += rows
			t.ends[i] = n
		}
		if n != total {
			return corruptf(r.path, sectionName[s], "blocks hold %d rows, footer says %d", n, total)
		}
		r.tables[s] = t
	}
	for _, s := range []int{secTermVec, secText} {
		if !slices.Equal(r.tables[s].ends, r.tables[secMeta].ends) {
			return corruptf(r.path, sectionName[s], "blocks rows differently from the meta section")
		}
	}
	return nil
}

// frame returns block idx of section s as stored — [compLen][rawLen][crc]
// then the compressed bytes — after checking the CRC.
func (r *Reader) frame(s, idx int) ([]byte, error) {
	offs := r.tables[s].offs
	if idx < 0 || idx >= len(offs) {
		return nil, corruptf(r.path, sectionName[s], "block %d out of range (%d blocks)", idx, len(offs))
	}
	sec := r.ft.sections[s]
	b := r.sectionBytes(s)
	d := newDec(b, r.path, sectionName[s])
	d.off = int(offs[idx])
	if uint64(d.off) >= sec.len {
		return nil, corruptf(r.path, sectionName[s], "block %d offset %d beyond section", idx, d.off)
	}
	start := d.off
	compLen := int(d.u32())
	d.u32() // rawLen
	wantCRC := d.u32()
	comp := d.slice(compLen)
	if d.err != nil {
		return nil, d.err
	}
	if got := crc32.ChecksumIEEE(comp); got != wantCRC {
		return nil, corruptf(r.path, sectionName[s], "block %d crc mismatch: stored %08x computed %08x", idx, wantCRC, got)
	}
	return b[start:d.off], nil
}

// maxInflate bounds DEFLATE's expansion: a length-258 match costs at least
// 2 bits, so no compressed byte inflates to more than 4 × 258 bytes.
const maxInflate = 1032

// readBlock decompresses block idx of section s (uncached). The frame CRC
// covers only the compressed bytes, so they bound rawLen before it is used.
func (r *Reader) readBlock(s, idx int) ([]byte, error) {
	frame, err := r.frame(s, idx)
	if err != nil {
		return nil, err
	}
	rawLen, comp := binary.LittleEndian.Uint32(frame[4:]), frame[12:]
	return inflate(nil, comp, uint64(rawLen), r.path, fmt.Sprintf("%s block %d", sectionName[s], idx))
}

// inflate decompresses comp, which must inflate to exactly rawLen bytes,
// into dst's storage. A rawLen above maxInflate × len(comp) or walMaxRecord
// is corrupt before anything is allocated. Every failure is a
// *CorruptError naming file and region.
func inflate(dst, comp []byte, rawLen uint64, file, region string) ([]byte, error) {
	if rawLen > maxInflate*uint64(len(comp)) || rawLen > walMaxRecord {
		return nil, corruptf(file, region, "claims %d bytes from %d compressed", rawLen, len(comp))
	}
	inf := inflaters.Get().(*inflater)
	defer func() {
		inf.src.Reset(nil)
		inflaters.Put(inf)
	}()
	inf.src.Reset(comp)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, corruptf(file, region, "inflate: %v", err)
	}
	raw := slices.Grow(dst[:0], int(rawLen))[:rawLen]
	n, err := io.ReadFull(inf.fr, raw)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, corruptf(file, region, "inflate: %v", err)
	}
	if n != len(raw) {
		return nil, corruptf(file, region, "inflated to %d bytes, want %d", n, rawLen)
	}
	// The stream must also end exactly here, with its final block.
	var one [1]byte
	if m, err := inf.fr.Read(one[:]); m != 0 || err != io.EOF {
		return nil, corruptf(file, region, "does not end at its declared %d bytes", rawLen)
	}
	return raw, nil
}

// inflaters pools block decoders: Reset re-arms one with the next block,
// keeping its window and Huffman tables.
var inflaters = sync.Pool{New: func() any {
	inf := &inflater{}
	inf.fr = flate.NewReader(&inf.src)
	return inf
}}

type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter reading src
}

// row returns a decoder positioned at document pos's row of section s
// (termvec or text). A block is inflated, and its row starts indexed, only
// when the one-block cache misses, so a walk over a block decodes each row
// once and searches the block table once.
func (r *Reader) row(s, pos int) (dec, error) {
	n := int(r.ft.docCount)
	if pos < 0 || pos >= n {
		return dec{}, corruptf(r.path, sectionName[s], "position %d out of range (%d documents)", pos, n)
	}
	r.cacheMu.Lock()
	c := r.blockCache[s]
	r.cacheMu.Unlock()
	if c.starts == nil || pos < c.lo || pos >= c.lo+len(c.starts)-1 {
		t := &r.tables[s]
		idx := sort.SearchInts(t.ends, pos+1) // the first block ending after pos
		raw, err := r.readBlock(s, idx)
		if err != nil {
			return dec{}, err
		}
		starts, err := r.rowStarts(s, raw, t.rows(idx))
		if err != nil {
			return dec{}, err
		}
		c = cachedBlock{lo: t.first(idx), raw: raw, starts: starts}
		r.cacheMu.Lock()
		r.blockCache[s] = c
		r.cacheMu.Unlock()
	}
	return dec{b: c.raw, off: int(c.starts[pos-c.lo]), file: r.path, sect: sectionName[s]}, nil
}

// rowStarts finds where each of a block's rows begins, and where the last
// one ends, skipping over the rows — without allocating, but for a meta
// row's strings.
func (r *Reader) rowStarts(s int, raw []byte, rows int) ([]uint32, error) {
	if rows > len(raw) { // every row is at least one byte
		return nil, corruptf(r.path, sectionName[s], "%d rows in a %d-byte block", rows, len(raw))
	}
	d := dec{b: raw, file: r.path, sect: sectionName[s]}
	starts := make([]uint32, rows+1)
	for i := 0; i < rows; i++ {
		starts[i] = uint32(d.off)
		switch s {
		case secMeta:
			decodeMeta(&d)
		case secTermVec:
			d.skipTermVec()
		case secLinks: // from, to, anchor
			d.strBytes()
			d.strBytes()
			d.strBytes()
		case secRedirects: // from, to
			d.strBytes()
			d.strBytes()
		default:
			d.strBytes()
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	starts[rows] = uint32(d.off)
	return starts, nil
}

// VisitMeta streams every document's (position, seq, meta) in position
// (= ascending seq) order. Returning false stops the walk.
func (r *Reader) VisitMeta(fn func(pos int, seq int64, m Meta) bool) error {
	t := &r.tables[secMeta]
	for blk := range t.offs {
		raw, err := r.readBlock(secMeta, blk)
		if err != nil {
			return err
		}
		d := newDec(raw, r.path, "meta")
		for pos := t.first(blk); pos < t.ends[blk]; pos++ {
			seq, m := decodeMeta(d)
			if d.err != nil {
				return d.err
			}
			if !fn(pos, seq, m) {
				return nil
			}
		}
	}
	return nil
}

// TermVec returns document pos's sorted term vector.
func (r *Reader) TermVec(pos int) ([]TermCount, error) {
	return r.TermVecInto(pos, nil)
}

// TermVecInto is TermVec reusing buf's backing array.
func (r *Reader) TermVecInto(pos int, buf []TermCount) ([]TermCount, error) {
	d, err := r.row(secTermVec, pos)
	if err != nil {
		return nil, err
	}
	vec := decodeTermVec(&d, buf)
	if d.err != nil {
		return nil, d.err
	}
	return vec, nil
}

// Text returns document pos's body text.
func (r *Reader) Text(pos int) (string, error) {
	d, err := r.row(secText, pos)
	if err != nil {
		return "", err
	}
	s := d.str()
	if d.err != nil {
		return "", d.err
	}
	return s, nil
}

// VisitPostings streams term's (seq, tf) postings in ascending seq order.
// Absent terms visit nothing.
func (r *Reader) VisitPostings(term string, fn func(seq int64, tf int)) error {
	l, err := r.postings(term)
	for _, e := range l {
		fn(e.seq, e.tf)
	}
	return err
}

// DocFreq returns the number of documents whose term vector holds term.
func (r *Reader) DocFreq(term string) (int, error) {
	l, err := r.postings(term)
	return len(l), err
}

// postings returns term's list. The first call inverts the reader's term
// vectors and keeps the result, so later calls are a map lookup.
func (r *Reader) postings(term string) ([]posting, error) {
	inv := r.inverted.Load()
	if inv == nil {
		var err error
		if inv, err = r.invert(); err != nil {
			return nil, err
		}
		r.inverted.Store(inv)
	}
	if l := (*inv)[term]; l != nil {
		return *l, nil
	}
	return nil, nil
}

// invert builds the inverted index: one walk of the meta section for the
// seqs, then one of the termvec blocks. Positions ascend with seq, so
// every list is seq-ascending.
func (r *Reader) invert() (*invertedIndex, error) {
	seqs := make([]int64, 0, r.ft.docCount)
	if err := r.VisitMeta(func(_ int, seq int64, _ Meta) bool {
		seqs = append(seqs, seq)
		return true
	}); err != nil {
		return nil, err
	}
	inv := invertedIndex{}
	t := &r.tables[secTermVec]
	for blk := range t.offs {
		raw, err := r.readBlock(secTermVec, blk)
		if err != nil {
			return nil, err
		}
		d := newDec(raw, r.path, "termvec")
		for pos := t.first(blk); pos < t.ends[blk]; pos++ {
			n := d.uvarint()
			for i := uint64(0); i < n && d.err == nil; i++ {
				term, tf := d.strBytes(), d.varint()
				l := inv[string(term)]
				if l == nil {
					l = new([]posting)
					inv[string(term)] = l
				}
				*l = append(*l, posting{seq: seqs[pos], tf: int(tf)})
			}
			if d.err != nil {
				return nil, d.err
			}
		}
	}
	return &inv, nil
}

// VisitLinks streams the segment's out-link rows in insert order.
func (r *Reader) VisitLinks(fn func(l LinkRow) bool) error {
	return r.visitRows(secLinks, func(d *dec) bool {
		l := LinkRow{From: d.str(), To: d.str(), Anchor: d.str()}
		return d.err == nil && fn(l)
	})
}

// VisitRedirects streams the segment's redirect rows in insert order.
func (r *Reader) VisitRedirects(fn func(rd RedirectRow) bool) error {
	return r.visitRows(secRedirects, func(d *dec) bool {
		rd := RedirectRow{From: d.str(), To: d.str()}
		return d.err == nil && fn(rd)
	})
}

// visitRows walks the rows of a link or redirect section, handing fn a
// decoder positioned at each. fn decodes the row and returns false to stop
// the walk, or on a decode error, which visitRows returns.
func (r *Reader) visitRows(s int, fn func(d *dec) bool) error {
	t := &r.tables[s]
	for blk := range t.offs {
		raw, err := r.readBlock(s, blk)
		if err != nil {
			return err
		}
		d := newDec(raw, r.path, sectionName[s])
		for i := 0; i < t.rows(blk); i++ {
			if !fn(d) {
				return d.err
			}
		}
	}
	return nil
}
