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
	"sort"
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
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("segment: build: %w", err)
	}
	bw := fileWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	defer func() {
		bw.Reset(nil)
		fileWriters.Put(bw)
	}()
	w := &countingWriter{w: bw}
	if err := writeSegment(w, in); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := w.w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("segment: build: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("segment: build: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("segment: build: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("segment: build: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return w.n, nil
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

// rawBlocks splits encoded rows into raw (uncompressed) blocks.
type rawBlocks struct {
	blocks [][]byte
	cur    enc
	rows   int
	per    int
}

func (r *rawBlocks) add(encode func(e *enc)) {
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
	r.blocks = append(r.blocks, b)
	r.cur.reset()
	r.rows = 0
}

// deflaters pools block encoders. A DEFLATE encoder carries ≈800 KB of
// match state that Reset clears and keeps, so builds share encoders instead
// of allocating one per section. Blocks are written without a preset
// dictionary: one would pin an encoder to its section (a stdlib Writer
// cannot be Reset onto a new dictionary), and it is stored raw, so it only
// pays for itself above ≈700–800 documents per segment (DESIGN.md).
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression) // only an invalid level errors
	return fw
}}

// fileWriters pools the buffered writer each Build streams its file through.
var fileWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// compressBlocks DEFLATE-compresses blocks in parallel. Every worker takes
// one encoder from deflaters and Resets it between blocks; readers still
// honour a non-empty section dictionary in segments written before
// dictionaries were written empty.
func compressBlocks(blocks [][]byte) ([][]byte, error) {
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
			fw := deflaters.Get().(*flate.Writer)
			defer deflaters.Put(fw)
			for i := range next {
				buf.Reset()
				fw.Reset(&buf)
				if _, err := fw.Write(blocks[i]); err != nil {
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

// writeBlockSection emits a compressed block section and returns its table
// row: [blocks][offset table][table crc].
func writeBlockSection(w *countingWriter, raw [][]byte) (section, error) {
	start := uint64(w.n)
	comp, err := compressBlocks(raw)
	if err != nil {
		return section{}, err
	}
	offsets := make([]uint64, len(comp))
	var e enc
	for i, c := range comp {
		offsets[i] = uint64(w.n) - start
		e.reset()
		e.u32(uint32(len(c)))
		e.u32(uint32(len(raw[i])))
		e.u32(crc32.ChecksumIEEE(c))
		if _, err := w.Write(e.b); err != nil {
			return section{}, err
		}
		if _, err := w.Write(c); err != nil {
			return section{}, err
		}
	}
	e.reset()
	e.u32(uint32(len(offsets)))
	for _, o := range offsets {
		e.u64(o)
	}
	e.u32(crc32.ChecksumIEEE(e.b))
	if _, err := w.Write(e.b); err != nil {
		return section{}, err
	}
	return section{off: start, len: uint64(w.n) - start, aux: uint32(len(comp))}, nil
}

func writeSegment(w *countingWriter, in BuildInput) error {
	var e enc
	e.raw([]byte(magic))
	e.byte(version)
	e.u32(uint32(in.Shard))
	if _, err := w.Write(e.b); err != nil {
		return err
	}

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
	meta.cut()
	tvec.cut()
	text.cut()

	links := &rawBlocks{per: linkBlockRows}
	for i := range in.OutLinks {
		l := &in.OutLinks[i]
		links.add(func(e *enc) { e.str(l.From); e.str(l.To); e.str(l.Anchor) })
	}
	links.cut()
	redirs := &rawBlocks{per: linkBlockRows}
	for i := range in.Redirects {
		r := &in.Redirects[i]
		redirs.add(func(e *enc) { e.str(r.From); e.str(r.To) })
	}
	redirs.cut()

	var ft footer
	ft.shard = uint32(in.Shard)
	ft.docCount = uint32(len(in.Docs))
	if len(in.Docs) > 0 {
		ft.minSeq = in.Docs[0].Seq
		ft.maxSeq = in.Docs[len(in.Docs)-1].Seq
	}
	ft.outLinks = uint32(len(in.OutLinks))
	ft.redirs = uint32(len(in.Redirects))

	// The dict section frames one dictionary per section, every one of
	// them empty (see deflaters).
	dictStart := uint64(w.n)
	e.reset()
	for s := 0; s < numSections; s++ {
		e.uvarint(0)
	}
	e.u32(crc32.ChecksumIEEE(e.b))
	if _, err := w.Write(e.b); err != nil {
		return err
	}
	ft.sections[secDict] = section{off: dictStart, len: uint64(w.n) - dictStart}

	var err error
	if ft.sections[secMeta], err = writeBlockSection(w, meta.blocks); err != nil {
		return err
	}
	if ft.sections[secTermVec], err = writeBlockSection(w, tvec.blocks); err != nil {
		return err
	}
	if ft.sections[secText], err = writeBlockSection(w, text.blocks); err != nil {
		return err
	}
	if err := writePostings(w, in.Docs, &ft); err != nil {
		return err
	}
	if ft.sections[secLinks], err = writeBlockSection(w, links.blocks); err != nil {
		return err
	}
	if ft.sections[secRedirects], err = writeBlockSection(w, redirs.blocks); err != nil {
		return err
	}

	e.reset()
	ft.encode(&e)
	_, err = w.Write(e.b)
	return err
}

// encode appends the footer: section table + counts + crc, then footerLen
// + magic.
func (ft *footer) encode(e *enc) {
	start := len(e.b)
	for s := 0; s < numSections; s++ {
		e.u64(ft.sections[s].off)
		e.u64(ft.sections[s].len)
		e.u32(ft.sections[s].aux)
	}
	e.u32(ft.docCount)
	e.u64(uint64(ft.minSeq))
	e.u64(uint64(ft.maxSeq))
	e.u32(ft.outLinks)
	e.u32(ft.inLinks)
	e.u32(ft.redirs)
	e.u32(ft.shard)
	e.u32(crc32.ChecksumIEEE(e.b[start:]))
	e.u32(uint32(len(e.b) - start))
	e.raw([]byte(magic))
}

// buildPosting is one (seq, tf) pair during the inverted build.
type buildPosting struct {
	seq int64
	tf  int
}

// writePostings derives the inverted index from the forward term vectors
// (docs arrive seq-ascending, so each term's list is seq-ascending and
// delta-encodes directly) and emits the postings section plus its sparse
// term index.
func writePostings(w *countingWriter, docs []DocRecord, ft *footer) error {
	inv := make(map[string][]buildPosting, 1024)
	for i := range docs {
		for _, tc := range docs[i].Terms {
			inv[tc.Term] = append(inv[tc.Term], buildPosting{seq: docs[i].Seq, tf: tc.TF})
		}
	}
	terms := make([]string, 0, len(inv))
	for t := range inv {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	start := uint64(w.n)
	type sparseEntry struct {
		term string
		off  uint64
	}
	var sparse []sparseEntry
	var e, body enc
	for i, t := range terms {
		if i%sparseEvery == 0 {
			sparse = append(sparse, sparseEntry{term: t, off: uint64(w.n) - start})
		}
		ps := inv[t]
		body.reset()
		prev := int64(0)
		for j, p := range ps {
			if j == 0 {
				body.uvarint(uint64(p.seq))
			} else {
				body.uvarint(uint64(p.seq - prev))
			}
			prev = p.seq
			body.varint(int64(p.tf))
		}
		e.reset()
		e.str(t)
		e.uvarint(uint64(len(ps)))
		e.uvarint(uint64(len(body.b)))
		e.u32(crc32.ChecksumIEEE(body.b))
		e.raw(body.b)
		if _, err := w.Write(e.b); err != nil {
			return err
		}
	}
	ft.sections[secPostings] = section{off: start, len: uint64(w.n) - start, aux: uint32(len(terms))}

	sparseStart := uint64(w.n)
	e.reset()
	for _, s := range sparse {
		e.str(s.term)
		e.uvarint(s.off)
	}
	e.u32(crc32.ChecksumIEEE(e.b))
	if _, err := w.Write(e.b); err != nil {
		return err
	}
	ft.sections[secSparse] = section{off: sparseStart, len: uint64(w.n) - sparseStart, aux: uint32(len(sparse))}
	return nil
}
