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
// tables and checks the dict section; the sparse term index is parsed
// lazily on first use and cached. A Reader is safe for concurrent use.
type Reader struct {
	path   string
	f      *os.File
	data   []byte
	unmap  func() error
	size   int64
	ft     footer
	tables [numSections]blockTable // block sections only

	// Lazily parsed sparse term index. Concurrent first loads compute the
	// same value; last store wins.
	sparse atomic.Pointer[sparseIndex]

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

type sparseIndex struct {
	terms []string
	offs  []uint64
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
		err = r.parseDicts()
	}
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
		r.ft.sections[s].aux = fd.u32()
	}
	r.ft.docCount = fd.u32()
	r.ft.minSeq = int64(fd.u64())
	r.ft.maxSeq = int64(fd.u64())
	r.ft.outLinks = fd.u32()
	inLinks := fd.u32()
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
	if inLinks != 0 {
		return corruptf(r.path, "footer", "%d in-link rows; links are stored once, as out-link rows", inLinks)
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

// parseDicts checks the dict section: one dictionary length per section,
// each of them 0, since no block is compressed against a preset dictionary.
func (r *Reader) parseDicts() error {
	b := r.sectionBytes(secDict)
	if len(b) < 4 {
		return corruptf(r.path, "dict", "section too short")
	}
	body := b[:len(b)-4]
	want := newDec(b[len(b)-4:], r.path, "dict").u32()
	if got := crc32.ChecksumIEEE(body); got != want {
		return corruptf(r.path, "dict", "crc mismatch: stored %08x computed %08x", want, got)
	}
	d := newDec(body, r.path, "dict")
	for s := 0; s < numSections; s++ {
		if n := d.uvarint(); n != 0 && d.err == nil {
			return corruptf(r.path, "dict", "%s dictionary of %d bytes; blocks have no preset dictionary", sectionName[s], n)
		}
	}
	return d.err
}

// parseTables reads and CRC-checks every block section's table. Each block
// must hold at least one row and the rows must add up to the footer's
// count for the section. The three document sections must block their rows
// identically.
func (r *Reader) parseTables() error {
	for _, s := range blockSections {
		total := int(r.ft.docCount)
		switch s {
		case secLinks:
			total = int(r.ft.outLinks)
		case secRedirects:
			total = int(r.ft.redirs)
		}
		sec := r.ft.sections[s]
		count := int(sec.aux)
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
	rawLen, comp := int(binary.LittleEndian.Uint32(frame[4:])), frame[12:]
	if rawLen > maxInflate*len(comp) {
		return nil, corruptf(r.path, sectionName[s], "block %d claims %d bytes from %d compressed", idx, rawLen, len(comp))
	}
	inf := inflaters.Get().(*inflater)
	defer func() {
		inf.src.Reset(nil)
		inflaters.Put(inf)
	}()
	inf.src.Reset(comp)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, corruptf(r.path, sectionName[s], "block %d inflate: %v", idx, err)
	}
	raw := make([]byte, rawLen)
	n, err := io.ReadFull(inf.fr, raw)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, corruptf(r.path, sectionName[s], "block %d inflate: %v", idx, err)
	}
	if n != rawLen {
		return nil, corruptf(r.path, sectionName[s], "block %d inflated to %d bytes, want %d", idx, n, rawLen)
	}
	// The stream must also end exactly here.
	var one [1]byte
	if m, _ := inf.fr.Read(one[:]); m != 0 {
		return nil, corruptf(r.path, sectionName[s], "block %d inflates past its declared %d bytes", idx, rawLen)
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
// one ends, skipping over the rows without allocating.
func (r *Reader) rowStarts(s int, raw []byte, rows int) ([]uint32, error) {
	if rows > len(raw) { // every row is at least one byte
		return nil, corruptf(r.path, sectionName[s], "%d rows in a %d-byte block", rows, len(raw))
	}
	d := dec{b: raw, file: r.path, sect: sectionName[s]}
	starts := make([]uint32, rows+1)
	for i := 0; i < rows; i++ {
		starts[i] = uint32(d.off)
		switch s {
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

// sparseIdx loads the sparse term index once.
func (r *Reader) sparseIdx() (*sparseIndex, error) {
	if p := r.sparse.Load(); p != nil {
		return p, nil
	}
	b := r.sectionBytes(secSparse)
	if len(b) < 4 {
		return nil, corruptf(r.path, "sparse-index", "section too short")
	}
	body := b[:len(b)-4]
	want := newDec(b[len(b)-4:], r.path, "sparse-index").u32()
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf(r.path, "sparse-index", "crc mismatch: stored %08x computed %08x", want, got)
	}
	d := newDec(body, r.path, "sparse-index")
	idx := &sparseIndex{}
	for i := 0; i < int(r.ft.sections[secSparse].aux); i++ {
		idx.terms = append(idx.terms, d.str())
		idx.offs = append(idx.offs, d.uvarint())
	}
	if d.err != nil {
		return nil, d.err
	}
	r.sparse.Store(idx)
	return idx, nil
}

// VisitPostings streams term's (seq, tf) postings in ascending seq order.
// Absent terms visit nothing. The scan reads at most sparseEvery entries
// past the sparse index's floor entry.
func (r *Reader) VisitPostings(term string, fn func(seq int64, tf int)) error {
	_, err := r.visitPostings(term, fn)
	return err
}

// DocFreq returns the stored document frequency of term.
func (r *Reader) DocFreq(term string) (int, error) {
	return r.visitPostings(term, nil)
}

func (r *Reader) visitPostings(term string, fn func(seq int64, tf int)) (int, error) {
	if r.ft.sections[secPostings].aux == 0 {
		return 0, nil
	}
	idx, err := r.sparseIdx()
	if err != nil {
		return 0, err
	}
	// Greatest sparse entry ≤ term.
	i := sort.SearchStrings(idx.terms, term)
	if i < len(idx.terms) && idx.terms[i] == term {
		// exact sparse hit: scan starts here
	} else if i == 0 {
		return 0, nil // term sorts before every stored term
	} else {
		i--
	}
	sec := r.sectionBytes(secPostings)
	d := newDec(sec, r.path, "postings")
	d.off = int(idx.offs[i])
	if d.off > len(sec) {
		return 0, corruptf(r.path, "postings", "sparse offset %d beyond section", d.off)
	}
	for scanned := 0; scanned < sparseEvery && d.off < len(sec); scanned++ {
		// The entry's term is compared in place on the mapped bytes: the
		// string conversions below compile to comparisons, not copies.
		t := d.strBytes()
		df := d.uvarint()
		blen := d.uvarint()
		wantCRC := d.u32()
		body := d.slice(int(blen))
		if d.err != nil {
			return 0, d.err
		}
		if string(t) > term {
			return 0, nil
		}
		if string(t) == term {
			if got := crc32.ChecksumIEEE(body); got != wantCRC {
				return 0, corruptf(r.path, "postings", "term %q crc mismatch: stored %08x computed %08x", term, wantCRC, got)
			}
			if fn == nil {
				return int(df), nil
			}
			pd := newDec(body, r.path, "postings")
			var seq int64
			for j := uint64(0); j < df; j++ {
				delta := int64(pd.uvarint())
				tf := pd.varint()
				if pd.err != nil {
					return 0, pd.err
				}
				seq += delta
				fn(seq, int(tf))
			}
			return int(df), nil
		}
	}
	return 0, nil
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
