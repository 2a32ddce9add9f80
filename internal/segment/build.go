package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// BuildInput is the data of one segment: a frozen slice of a store shard.
// Docs must be in ascending Seq order with each Terms vector sorted by
// term string — the order the search tier reproduces bit-identically.
// A link is stored once, as an out-link row of its source URL's shard.
type BuildInput struct {
	Shard     int
	Docs      []DocRecord
	OutLinks  []LinkRow
	Redirects []RedirectRow
}

// Build writes a segment file atomically (tmp + fsync + rename + dir
// fsync) and returns the byte size written. The input is not retained.
func Build(path string, in BuildInput) (int64, error) {
	for i := 1; i < len(in.Docs); i++ {
		if in.Docs[i].Seq <= in.Docs[i-1].Seq {
			return 0, fmt.Errorf("segment: build %s: docs not in ascending seq order (%d after %d)", path, in.Docs[i].Seq, in.Docs[i-1].Seq)
		}
	}
	return writeFile(path, func(w *countingWriter) error { return writeSegment(w, in) })
}

// writeFile creates path atomically (tmp + fsync + rename + dir fsync)
// from what write streams into it and returns the byte size written.
func writeFile(path string, write func(w *countingWriter) error) (n int64, err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		os.Remove(tmp) // leave no tmp behind, whatever blocked the create
		return 0, fmt.Errorf("segment: write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(tmp)
		}
	}()
	bw := fileWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	defer func() {
		bw.Reset(nil)
		fileWriters.Put(bw)
	}()
	w := &countingWriter{w: bw}
	if err := write(w); err != nil {
		return 0, err
	}
	err = w.w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return 0, fmt.Errorf("segment: write %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return w.n, nil
}

// WriteFileAtomic replaces path with b the way Build writes a segment (tmp
// + fsync + rename + dir fsync). Any failure before the rename removes tmp
// and leaves path as it was. The store's manifest and TIER.json and the
// crawl session are written through it.
func WriteFileAtomic(path string, b []byte) error {
	_, err := writeFile(path, func(w *countingWriter) error {
		_, err := w.Write(b)
		return err
	})
	return err
}

type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("segment: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("segment: sync dir: %w", err)
	}
	return nil
}

// block is one block of a section being written: encoded rows to
// compress, or a frame ([compLen][rawLen][crc][comp]) copied verbatim from
// another segment.
type block struct {
	raw   []byte
	frame []byte
	rows  int
}

// rawBlocks collects a section's blocks: rows, cut into a block every per
// rows, and copied frames, each cutting the rows before it. Rows are
// encoded into cur, a buffer taken from rowBufs on the first row and
// returned by finish.
type rawBlocks struct {
	blocks []block
	cur    enc
	buf    *[]byte // cur's pooled buffer, nil until the first row
	rows   int
	per    int
}

// rowBufs recycles the buffers sections encode their rows into. Every cut
// copies the block out, so a returned buffer aliases no block, and a
// build starts from a buffer an earlier build already grew to a block's
// size instead of regrowing one from zero per section.
var rowBufs = sync.Pool{New: func() any { return new([]byte) }}

func (r *rawBlocks) add(encode func(e *enc)) {
	if r.buf == nil {
		r.buf = rowBufs.Get().(*[]byte)
		r.cur.b = (*r.buf)[:0]
	}
	encode(&r.cur)
	r.rows++
	if r.rows >= r.per {
		r.cut()
	}
}

func (r *rawBlocks) cut() {
	if r.rows == 0 {
		return
	}
	b := make([]byte, len(r.cur.b))
	copy(b, r.cur.b)
	r.blocks = append(r.blocks, block{raw: b, rows: r.rows})
	r.cur.reset()
	r.rows = 0
}

func (r *rawBlocks) frame(f []byte, rows int) {
	r.cut()
	r.blocks = append(r.blocks, block{frame: f, rows: rows})
}

// finish cuts the last rows, returns the row buffer to rowBufs, and
// returns the section's blocks.
func (r *rawBlocks) finish() []block {
	r.cut()
	if r.buf != nil {
		*r.buf = r.cur.b[:0]
		rowBufs.Put(r.buf)
		r.buf, r.cur.b = nil, nil
	}
	return r.blocks
}

// docLevel and linkLevel are the DEFLATE levels of the document sections
// (meta, termvec, text) and of the link and redirect sections. On the
// blocks of a 3,000-document store's segments, level 4 against 6 costs
// +2.5 % bytes on meta, +2.8 % on termvec and +3.5 % on text, and encodes
// them 1.26×, 1.49× and 2.48× faster; on links it costs +12.6 % for 2.44×,
// so links stay at 6. A segment is then +2.7 % bytes for 1.62× the encode
// speed (DESIGN.md). A reader inflates any level, and a merge copies a
// clean block at whatever level wrote it.
const (
	docLevel  = 4
	linkLevel = flate.DefaultCompression
)

// sectionLevel returns the DEFLATE level section s's blocks are encoded at.
func sectionLevel(s int) int {
	if s == secLinks || s == secRedirects {
		return linkLevel
	}
	return docLevel
}

// deflaters pools block encoders, one pool per level. A DEFLATE encoder
// carries ≈800 KB of match state that Reset clears and keeps, so builds
// share encoders instead of allocating one per section. Blocks are written
// without a preset dictionary: one would pin an encoder to its section (a
// stdlib Writer cannot be Reset onto a new dictionary), and it is stored
// raw, so it only pays for itself above ≈700–800 documents per segment
// (DESIGN.md).
var deflaters = map[int]*sync.Pool{docLevel: deflaterPool(docLevel), linkLevel: deflaterPool(linkLevel)}

func deflaterPool(level int) *sync.Pool {
	return &sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(nil, level) // only an invalid level errors
		return fw
	}}
}

// fileWriters pools the buffered writer each segment write streams its
// file through.
var fileWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// compressBlocks DEFLATE-compresses the blocks that are not copied frames,
// in parallel. Every worker takes one encoder from pool and Resets it
// between blocks.
func compressBlocks(blocks []block, pool *sync.Pool) ([][]byte, error) {
	out := make([][]byte, len(blocks))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers < 1 {
		return out, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	next := make(chan int)
	// A worker that exits early on error closes done (once — several may
	// fail) so the feeder never blocks forever on next <- i after its
	// consumers are gone.
	done := make(chan struct{})
	var failed sync.Once
	fail := func(w int, err error) {
		errs[w] = err
		failed.Do(func() { close(done) })
	}
	go func() {
		defer close(next)
		for i := range blocks {
			select {
			case next <- i:
			case <-done:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			fw := pool.Get().(*flate.Writer)
			defer pool.Put(fw)
			for i := range next {
				if blocks[i].frame != nil {
					continue
				}
				buf.Reset()
				fw.Reset(&buf)
				if _, err := fw.Write(blocks[i].raw); err != nil {
					fail(w, err)
					return
				}
				if err := fw.Close(); err != nil {
					fail(w, err)
					return
				}
				c := make([]byte, buf.Len())
				copy(c, buf.Bytes())
				out[i] = c
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("segment: compress: %w", err)
		}
	}
	return out, nil
}

// writeBlockSection emits a block section, encoding the blocks that are
// not copied frames at level (docLevel or linkLevel), and returns its table
// row: [blocks][block table][table crc].
func writeBlockSection(w *countingWriter, blocks []block, level int) (section, error) {
	start := uint64(w.n)
	comp, err := compressBlocks(blocks, deflaters[level])
	if err != nil {
		return section{}, err
	}
	offsets := make([]uint64, len(blocks))
	var e enc
	for i, b := range blocks {
		offsets[i] = uint64(w.n) - start
		if b.frame != nil {
			if _, err := w.Write(b.frame); err != nil {
				return section{}, err
			}
			continue
		}
		e.reset()
		e.u32(uint32(len(comp[i])))
		e.u32(uint32(len(b.raw)))
		e.u32(crc32.ChecksumIEEE(comp[i]))
		if _, err := w.Write(e.b); err != nil {
			return section{}, err
		}
		if _, err := w.Write(comp[i]); err != nil {
			return section{}, err
		}
	}
	e.reset()
	e.u32(uint32(len(blocks)))
	for i, b := range blocks {
		e.u64(offsets[i])
		e.u32(uint32(b.rows))
	}
	e.u32(crc32.ChecksumIEEE(e.b))
	if _, err := w.Write(e.b); err != nil {
		return section{}, err
	}
	return section{off: start, len: uint64(w.n) - start, blocks: uint32(len(blocks))}, nil
}

// writeHeader writes the file header: magic, version, shard.
func writeHeader(w *countingWriter, shard uint32) error {
	var e enc
	e.raw([]byte(magic))
	e.byte(version)
	e.u32(shard)
	_, err := w.Write(e.b)
	return err
}

func writeSegment(w *countingWriter, in BuildInput) error {
	// Raw rows for the three document sections, blocked identically.
	meta := &rawBlocks{per: blockDocs}
	tvec := &rawBlocks{per: blockDocs}
	text := &rawBlocks{per: blockDocs}
	for i := range in.Docs {
		d := &in.Docs[i]
		meta.add(func(e *enc) { encodeMeta(e, d.Seq, &d.Meta) })
		tvec.add(func(e *enc) { encodeTermVec(e, d.Terms) })
		text.add(func(e *enc) { e.str(d.Text) })
	}

	links := &rawBlocks{per: linkBlockRows}
	for i := range in.OutLinks {
		l := &in.OutLinks[i]
		links.add(func(e *enc) { e.str(l.From); e.str(l.To); e.str(l.Anchor) })
	}
	redirs := &rawBlocks{per: linkBlockRows}
	for i := range in.Redirects {
		r := &in.Redirects[i]
		redirs.add(func(e *enc) { e.str(r.From); e.str(r.To) })
	}

	var ft footer
	ft.shard = uint32(in.Shard)
	ft.docCount = uint32(len(in.Docs))
	if len(in.Docs) > 0 {
		ft.minSeq = in.Docs[0].Seq
		ft.maxSeq = in.Docs[len(in.Docs)-1].Seq
	}
	ft.outLinks = uint32(len(in.OutLinks))
	ft.redirs = uint32(len(in.Redirects))

	if err := writeHeader(w, ft.shard); err != nil {
		return err
	}
	for s, rows := range [numSections]*rawBlocks{meta, tvec, text, links, redirs} {
		var err error
		if ft.sections[s], err = writeBlockSection(w, rows.finish(), sectionLevel(s)); err != nil {
			return err
		}
	}
	var e enc
	ft.encode(&e)
	_, err := w.Write(e.b)
	return err
}

// encode appends the footer: section table + counts + crc, then footerLen
// + magic.
func (ft *footer) encode(e *enc) {
	start := len(e.b)
	for s := 0; s < numSections; s++ {
		e.u64(ft.sections[s].off)
		e.u64(ft.sections[s].len)
		e.u32(ft.sections[s].blocks)
	}
	e.u32(ft.docCount)
	e.u64(uint64(ft.minSeq))
	e.u64(uint64(ft.maxSeq))
	e.u32(ft.outLinks)
	e.u32(ft.redirs)
	e.u32(ft.shard)
	e.u32(crc32.ChecksumIEEE(e.b[start:]))
	e.u32(uint32(len(e.b) - start))
	e.raw([]byte(magic))
}
