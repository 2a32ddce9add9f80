package segment

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Reader is an open immutable segment. Open reads only the footer; block
// offset tables, dictionaries, and the sparse term index are parsed
// lazily on first use and cached. A Reader is safe for concurrent use.
type Reader struct {
	path  string
	f     *os.File
	data  []byte
	unmap func() error
	size  int64
	ft    footer

	// Lazily parsed indexes. Concurrent first loads compute the same
	// value; last store wins.
	dicts  atomic.Pointer[[numSections][]byte]
	tables [numSections]atomic.Pointer[[]uint64] // block offset tables
	sparse atomic.Pointer[sparseIndex]

	// blockCache holds the most recently inflated block of the termvec and
	// text sections — compaction, snapshot builds and hydration walk
	// neighboring positions, so one block of locality captures most repeat
	// access.
	cacheMu    sync.Mutex
	blockCache [numSections]cachedBlock
}

type cachedBlock struct {
	idx    int // block index +1 (0 = empty)
	raw    []byte
	starts []uint32 // offset of each row in raw
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
	if err := r.parseFooter(); err != nil {
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
		return corruptf(r.path, "header", "unsupported version %d", d[4])
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
	r.ft.inLinks = fd.u32()
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

// dictFor returns section s's preset dictionary, parsing the dict section
// once.
func (r *Reader) dictFor(s int) ([]byte, error) {
	if p := r.dicts.Load(); p != nil {
		return (*p)[s], nil
	}
	b := r.sectionBytes(secDict)
	if len(b) < 4 {
		return nil, corruptf(r.path, "dict", "section too short")
	}
	body, crcB := b[:len(b)-4], b[len(b)-4:]
	want := newDec(crcB, r.path, "dict").u32()
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf(r.path, "dict", "crc mismatch: stored %08x computed %08x", want, got)
	}
	d := newDec(body, r.path, "dict")
	var dicts [numSections][]byte
	for s := 0; s < numSections; s++ {
		n := d.uvarint()
		raw := d.slice(int(n))
		if d.err != nil {
			return nil, d.err
		}
		dicts[s] = raw
	}
	r.dicts.Store(&dicts)
	return dicts[s], nil
}

// blockTable returns section s's block offset table, parsing and CRC-
// checking it once.
func (r *Reader) blockTable(s int) ([]uint64, error) {
	if p := r.tables[s].Load(); p != nil {
		return *p, nil
	}
	sec := r.ft.sections[s]
	count := int(sec.aux)
	tableLen := 4 + count*8 + 4
	if uint64(tableLen) > sec.len {
		return nil, corruptf(r.path, sectionName[s], "block table of %d entries larger than section", count)
	}
	b := r.sectionBytes(s)
	tb := b[len(b)-tableLen:]
	want := newDec(tb[len(tb)-4:], r.path, sectionName[s]).u32()
	if got := crc32.ChecksumIEEE(tb[:len(tb)-4]); got != want {
		return nil, corruptf(r.path, sectionName[s], "block table crc mismatch: stored %08x computed %08x", want, got)
	}
	d := newDec(tb[:len(tb)-4], r.path, sectionName[s])
	if got := int(d.u32()); got != count {
		return nil, corruptf(r.path, sectionName[s], "block table count %d != footer %d", got, count)
	}
	offs := make([]uint64, count)
	for i := range offs {
		offs[i] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	r.tables[s].Store(&offs)
	return offs, nil
}

// readBlock decompresses block idx of section s (uncached).
func (r *Reader) readBlock(s, idx int) ([]byte, error) {
	offs, err := r.blockTable(s)
	if err != nil {
		return nil, err
	}
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
	compLen := int(d.u32())
	rawLen := int(d.u32())
	wantCRC := d.u32()
	comp := d.slice(compLen)
	if d.err != nil {
		return nil, d.err
	}
	if got := crc32.ChecksumIEEE(comp); got != wantCRC {
		return nil, corruptf(r.path, sectionName[s], "block %d crc mismatch: stored %08x computed %08x", idx, wantCRC, got)
	}
	dict, err := r.dictFor(s)
	if err != nil {
		return nil, err
	}
	inf := inflaters.Get().(*inflater)
	defer func() {
		inf.src.Reset(nil)
		inflaters.Put(inf)
	}()
	inf.src.Reset(comp)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, dict); err != nil {
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

// inflaters pools block decoders: Reset re-arms one with the next block
// and its section's dictionary, keeping its window and Huffman tables.
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
// once.
func (r *Reader) row(s, pos int) (dec, error) {
	n := int(r.ft.docCount)
	if pos < 0 || pos >= n {
		return dec{}, corruptf(r.path, sectionName[s], "position %d out of range (%d documents)", pos, n)
	}
	idx := pos / blockDocs
	r.cacheMu.Lock()
	c := r.blockCache[s]
	r.cacheMu.Unlock()
	if c.idx != idx+1 {
		raw, err := r.readBlock(s, idx)
		if err != nil {
			return dec{}, err
		}
		starts, err := r.rowStarts(s, raw, min(blockDocs, n-idx*blockDocs))
		if err != nil {
			return dec{}, err
		}
		c = cachedBlock{idx: idx + 1, raw: raw, starts: starts}
		r.cacheMu.Lock()
		r.blockCache[s] = c
		r.cacheMu.Unlock()
	}
	return dec{b: c.raw, off: int(c.starts[pos%blockDocs]), file: r.path, sect: sectionName[s]}, nil
}

// rowStarts finds where each of a block's rows begins, skipping over the
// rows without allocating.
func (r *Reader) rowStarts(s int, raw []byte, rows int) ([]uint32, error) {
	d := dec{b: raw, file: r.path, sect: sectionName[s]}
	starts := make([]uint32, rows)
	for i := range starts {
		starts[i] = uint32(d.off)
		if s == secTermVec {
			d.skipTermVec()
		} else {
			d.strBytes()
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return starts, nil
}

// VisitMeta streams every document's (position, seq, meta) in position
// (= ascending seq) order. Returning false stops the walk.
func (r *Reader) VisitMeta(fn func(pos int, seq int64, m Meta) bool) error {
	pos := 0
	n := int(r.ft.docCount)
	for blk := 0; pos < n; blk++ {
		raw, err := r.readBlock(secMeta, blk)
		if err != nil {
			return err
		}
		d := newDec(raw, r.path, "meta")
		for i := 0; i < blockDocs && pos < n; i++ {
			seq, m := decodeMeta(d)
			if d.err != nil {
				return d.err
			}
			if !fn(pos, seq, m) {
				return nil
			}
			pos++
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

// VisitLinks streams the segment's link rows in insert order: the out-link
// rows, then any in-link rows (only older segments hold them). out reports
// which family a row belongs to.
func (r *Reader) VisitLinks(fn func(l LinkRow, out bool) bool) error {
	total := int(r.ft.outLinks) + int(r.ft.inLinks)
	pos := 0
	for blk := 0; pos < total; blk++ {
		raw, err := r.readBlock(secLinks, blk)
		if err != nil {
			return err
		}
		d := newDec(raw, r.path, "links")
		for i := 0; i < linkBlockRows && pos < total; i++ {
			var l LinkRow
			l.From = d.str()
			l.To = d.str()
			l.Anchor = d.str()
			if d.err != nil {
				return d.err
			}
			if !fn(l, pos < int(r.ft.outLinks)) {
				return nil
			}
			pos++
		}
	}
	return nil
}

// VisitRedirects streams the segment's redirect rows in insert order.
func (r *Reader) VisitRedirects(fn func(rd RedirectRow) bool) error {
	total := int(r.ft.redirs)
	pos := 0
	for blk := 0; pos < total; blk++ {
		raw, err := r.readBlock(secRedirects, blk)
		if err != nil {
			return err
		}
		d := newDec(raw, r.path, "redirects")
		for i := 0; i < linkBlockRows && pos < total; i++ {
			var rd RedirectRow
			rd.From = d.str()
			rd.To = d.str()
			if d.err != nil {
				return d.err
			}
			if !fn(rd) {
				return nil
			}
			pos++
		}
	}
	return nil
}
