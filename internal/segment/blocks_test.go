package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func openBytes(t testing.TB, b []byte) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.bsg")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// deflate compresses raw with a freshly built encoder at level.
func deflate(t *testing.T, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockComp returns block idx of section s as stored: its compressed bytes.
func blockComp(t *testing.T, r *Reader, file []byte, s, idx int) []byte {
	t.Helper()
	start := r.ft.sections[s].off + r.tables[s].offs[idx]
	n := uint64(binary.LittleEndian.Uint32(file[start:]))
	return file[start+12 : start+12+n]
}

// TestTermVecDecodesOnlyItsRow: reading the last row of a cached block costs
// what reading the first does — one string per term of that row, not one
// per term of every row before it.
func TestTermVecDecodesOnlyItsRow(t *testing.T) {
	const terms = 10
	in := genInput(3, 2*blockDocs)
	for i := range in.Docs {
		vec := make([]TermCount, terms)
		for k := range vec {
			vec[k] = TermCount{Term: fmt.Sprintf("t%02d", k), TF: 1 + (i+k)%3}
		}
		in.Docs[i].Terms = vec
	}
	_, r := buildTemp(t, in)
	buf := make([]TermCount, 0, 2*terms)
	allocs := func(pos int) float64 {
		if vec, err := r.TermVecInto(pos, buf); err != nil || !reflect.DeepEqual(vec, in.Docs[pos].Terms) {
			t.Fatalf("TermVecInto(%d): %v", pos, err)
		}
		return testing.AllocsPerRun(50, func() { r.TermVecInto(pos, buf) })
	}
	first, last := allocs(0), allocs(blockDocs-1)
	if first != terms || last != first {
		t.Fatalf("allocs at position 0: %v, at %d: %v; want %d at both", first, blockDocs-1, last, terms)
	}
}

// TestBuildPoolReuseIsByteIdentical: encoders and file buffers that served
// another build leave no trace. A, B, then A again writes A twice byte for
// byte, and every block is what a fresh flate.NewWriter at its section's
// level makes of it — both encoder pools, document and link, are checked.
func TestBuildPoolReuseIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, in BuildInput) []byte {
		path := filepath.Join(dir, name)
		if _, err := Build(path, in); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := genInput(5, 3*blockDocs+9)
	first := build("a1.bsg", a)
	build("b.bsg", genInput(6, 90))
	if again := build("a2.bsg", a); !bytes.Equal(first, again) {
		t.Fatal("rebuilding A after B wrote different bytes")
	}
	r := openBytes(t, first)
	for s := 0; s < numSections; s++ {
		for idx := range r.tables[s].offs {
			raw, err := r.readBlock(s, idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blockComp(t, r, first, s, idx), deflate(t, raw, sectionLevel(s))) {
				t.Fatalf("%s block %d differs from a fresh encoder's output", sectionName[s], idx)
			}
		}
	}
}

// TestShuffledReadsMatchSequential: any visiting order, across block
// boundaries and into a partial last block, reads what an in-order walk
// reads — also with several walks sharing one reader's block cache.
func TestShuffledReadsMatchSequential(t *testing.T) {
	in := genInput(9, 3*blockDocs+17)
	path, seq := buildTemp(t, in)
	vecs := make([][]TermCount, len(in.Docs))
	texts := make([]string, len(in.Docs))
	for p := range in.Docs {
		var err error
		if vecs[p], err = seq.TermVec(p); err != nil || !reflect.DeepEqual(vecs[p], in.Docs[p].Terms) {
			t.Fatalf("TermVec(%d): %v", p, err)
		}
		if texts[p], err = seq.Text(p); err != nil || texts[p] != in.Docs[p].Text {
			t.Fatalf("Text(%d): %v", p, err)
		}
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range rand.New(rand.NewSource(w)).Perm(len(in.Docs)) {
				if vec, err := r.TermVec(p); err != nil || !reflect.DeepEqual(vec, vecs[p]) {
					t.Errorf("walk %d: TermVec(%d): %v", w, p, err)
					return
				}
				if text, err := r.Text(p); err != nil || text != texts[p] {
					t.Errorf("walk %d: Text(%d): %v", w, p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// splice replaces bytes [start, end) of section s of a valid segment file
// with repl, shifting the sections after it and re-encoding the footer.
func splice(t testing.TB, file []byte, s int, start, end uint64, repl []byte) []byte {
	t.Helper()
	ft := openBytes(t, file).ft
	delta := uint64(len(repl)) - (end - start) // wraps; additions below wrap back
	for k := range ft.sections {
		if ft.sections[k].off >= end {
			ft.sections[k].off += delta
		}
	}
	ft.sections[s].len += delta
	footerStart := len(file) - 8 - int(binary.LittleEndian.Uint32(file[len(file)-8:]))
	out := append(append([]byte(nil), file[:start]...), repl...)
	out = append(out, file[end:footerStart]...)
	var e enc
	ft.encode(&e)
	return append(out, e.b...)
}

// rewriteLastBlock replaces the last block of section s with a validly
// framed and checksummed block holding mangle(raw).
func rewriteLastBlock(t *testing.T, file []byte, s int, mangle func([]byte) []byte) []byte {
	t.Helper()
	r := openBytes(t, file)
	offs := r.tables[s].offs
	raw, err := r.readBlock(s, len(offs)-1)
	if err != nil {
		t.Fatal(err)
	}
	raw = mangle(append([]byte(nil), raw...))
	comp := deflate(t, raw, sectionLevel(s))
	var frame enc
	frame.u32(uint32(len(comp)))
	frame.u32(uint32(len(raw)))
	frame.u32(crc32.ChecksumIEEE(comp))
	frame.raw(comp)
	start := r.ft.sections[s].off + offs[len(offs)-1]
	end := start + 12 + uint64(binary.LittleEndian.Uint32(file[start:]))
	return splice(t, file, s, start, end, frame.b)
}

// TestMangledBlockIsCorrupt: a block whose checksum holds but whose rows do
// not parse fails every read of it with ErrCorrupt, never with wrong data.
func TestMangledBlockIsCorrupt(t *testing.T) {
	in := genInput(13, 2*blockDocs+20)
	path, _ := buildTemp(t, in)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangles := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"emptied":   func([]byte) []byte { return nil },
	}
	for name, mangle := range mangles {
		for _, s := range []int{secTermVec, secText} {
			r := openBytes(t, rewriteLastBlock(t, orig, s, mangle))
			corrupt := 0
			for p := 2 * blockDocs; p < len(in.Docs); p++ {
				var err error
				var ok bool
				if s == secTermVec {
					var vec []TermCount
					vec, err = r.TermVec(p)
					ok = reflect.DeepEqual(vec, in.Docs[p].Terms)
				} else {
					var text string
					text, err = r.Text(p)
					ok = text == in.Docs[p].Text
				}
				switch {
				case errors.Is(err, ErrCorrupt):
					corrupt++
				case err != nil || !ok:
					t.Fatalf("%s %s: position %d read %v without ErrCorrupt", name, sectionName[s], p, err)
				}
			}
			if corrupt == 0 {
				t.Fatalf("%s %s: no read of the block failed", name, sectionName[s])
			}
			if err := readAll(r); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %s: readAll = %v, want ErrCorrupt", name, sectionName[s], err)
			}
		}
	}
}

// otherFormats derives, from a fresh segment, one file per format version
// the reader does not accept: 1, 2 (the last with a postings section) and
// the next one up.
func otherFormats(t testing.TB) map[string][]byte {
	t.Helper()
	file := buildBytes(t, genInput(71, 2*blockDocs+5))
	out := map[string][]byte{}
	for _, v := range []byte{1, 2, version + 1} {
		b := append([]byte(nil), file...)
		b[4] = v
		out[fmt.Sprintf("version %d", v)] = b
	}
	return out
}

// TestOpenRejectsOtherFormats: Open accepts version 3 and no other version.
func TestOpenRejectsOtherFormats(t *testing.T) {
	for name, b := range otherFormats(t) {
		path := filepath.Join(t.TempDir(), "old.bsg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err == nil {
			r.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open = %v, want ErrCorrupt", name, err)
		}
		if want := "unsupported format " + name; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Open = %v, want %q", name, err, want)
		}
	}
}

// hugeRawLen is a fresh segment whose first meta block claims to inflate
// to 4 GiB. Its frame CRC covers only the compressed bytes, so the file
// opens.
func hugeRawLen(t testing.TB) []byte {
	t.Helper()
	file := buildBytes(t, genInput(73, 200))
	r := openBytes(t, file)
	binary.LittleEndian.PutUint32(file[r.ft.sections[secMeta].off+r.tables[secMeta].offs[0]+4:], 0xffffffff)
	return file
}

// TestHugeRawLenIsCorrupt: a block whose declared raw length its
// compressed bytes cannot inflate to fails with ErrCorrupt before anything
// of that size is allocated.
func TestHugeRawLenIsCorrupt(t *testing.T) {
	r := openBytes(t, hugeRawLen(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := r.VisitMeta(func(int, int64, Meta) bool { return true })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VisitMeta = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("VisitMeta allocated %d MB before failing", grew>>20)
	}
}

// TestRowBufferPoolIsByteIdentical: the pooled row buffers leave no trace
// in what a build or a merge writes. The same input is built with a
// drained pool, with a pool warmed by another build, and drained again
// by two GCs; the three files are byte-identical, and so are three merges
// that re-encode rows the same way.
func TestRowBufferPoolIsByteIdentical(t *testing.T) {
	drain := func() { runtime.GC(); runtime.GC() }
	a := genInput(11, 3*blockDocs+17)
	other := genInput(12, 2*blockDocs+5)
	check := func(label string, build func() []byte) {
		t.Helper()
		drain()
		cold := build()
		build()
		if warm := build(); !bytes.Equal(cold, warm) {
			t.Fatalf("%s with a warm pool differs from a cold one", label)
		}
		drain()
		if drained := build(); !bytes.Equal(cold, drained) {
			t.Fatalf("%s after the pool drained differs from a cold one", label)
		}
	}
	check("build", func() []byte {
		buildBytes(t, other)
		return buildBytes(t, a)
	})

	var inputs []*Reader
	for _, in := range splitInput(a, []int{blockDocs + 9, blockDocs - 3, blockDocs + 11}) {
		_, r := buildTemp(t, in)
		inputs = append(inputs, r)
	}
	live := allLive(t, inputs...)
	for seq := range live {
		live[seq] = seq%5 != 0 // every block loses rows: all are re-encoded
	}
	check("merge", func() []byte {
		buildBytes(t, other)
		_, r := mergeTemp(t, inputs, live)
		b, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// BenchmarkSegmentBuild times writeSegment over a 600-document input into
// a discarding writer (no file, no fsync) and reports the bytes it
// allocates per document.
func BenchmarkSegmentBuild(b *testing.B) {
	const docs = 600
	in := genInput(1, docs)
	w := &countingWriter{w: bufio.NewWriter(io.Discard)}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSegment(w, in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*docs), "B/doc")
}
