package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// presetDictFixture is a segment written when Build still sampled a preset
// dictionary from each section's first block (140 documents in 3 blocks,
// the last partial, plus links and redirects). It cannot be regenerated
// from this tree; its golden holds every value the reader decoded from it
// then.
const presetDictFixture = "testdata/preset-dict.bsg"

type fixtureGolden struct {
	Shard     int
	MinSeq    int64
	MaxSeq    int64
	Docs      []DocRecord
	Postings  map[string][][2]int64 // term → (seq, tf) pairs
	OutLinks  []LinkRow
	InLinks   []LinkRow
	Redirects []RedirectRow
}

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

// deflate compresses raw with a freshly built encoder.
func deflate(t *testing.T, raw, dict []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriterDict(&buf, flate.DefaultCompression, dict)
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

func TestPresetDictionarySegmentReads(t *testing.T) {
	b, err := os.ReadFile(presetDictFixture)
	if err != nil {
		t.Fatal(err)
	}
	var g fixtureGolden
	gb, err := os.ReadFile("testdata/preset-dict.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gb, &g); err != nil {
		t.Fatal(err)
	}
	r := openBytes(t, b)

	// The fixture still is what it stands for.
	for _, s := range blockSections {
		if d := r.dicts[s]; len(d) == 0 {
			t.Fatalf("%s dictionary empty", sectionName[s])
		}
	}
	for _, s := range []int{secMeta, secTermVec, secText} {
		if n := len(r.tables[s].offs); n < 3 {
			t.Fatalf("%s: %d blocks", sectionName[s], n)
		}
	}
	if r.DocCount()%blockDocs == 0 || len(g.OutLinks) == 0 || len(g.InLinks) == 0 || len(g.Redirects) == 0 {
		t.Fatalf("fixture lost its partial block or links: %d docs, %d/%d/%d link rows",
			r.DocCount(), len(g.OutLinks), len(g.InLinks), len(g.Redirects))
	}

	if r.Shard() != g.Shard || r.MinSeq() != g.MinSeq || r.MaxSeq() != g.MaxSeq || r.DocCount() != len(g.Docs) {
		t.Fatalf("footer: shard %d seqs [%d,%d] docs %d, golden %d [%d,%d] %d",
			r.Shard(), r.MinSeq(), r.MaxSeq(), r.DocCount(), g.Shard, g.MinSeq, g.MaxSeq, len(g.Docs))
	}
	var docs []DocRecord
	if err := r.VisitMeta(func(pos int, seq int64, m Meta) bool {
		vec, err := r.TermVec(pos)
		if err != nil {
			t.Fatalf("TermVec(%d): %v", pos, err)
		}
		text, err := r.Text(pos)
		if err != nil {
			t.Fatalf("Text(%d): %v", pos, err)
		}
		docs = append(docs, DocRecord{Seq: seq, Meta: m, Terms: vec, Text: text})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := range g.Docs {
		if !reflect.DeepEqual(docs[i], g.Docs[i]) {
			t.Fatalf("doc %d:\n got %+v\nwant %+v", i, docs[i], g.Docs[i])
		}
	}
	for term, want := range g.Postings {
		var got [][2]int64
		if err := r.VisitPostings(term, func(seq int64, tf int) { got = append(got, [2]int64{seq, int64(tf)}) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("postings %q: got %v want %v", term, got, want)
		}
		if df, err := r.DocFreq(term); err != nil || df != len(want) {
			t.Fatalf("DocFreq(%q) = %d, %v; want %d", term, df, err, len(want))
		}
	}
	var outs, ins []LinkRow
	if err := r.VisitLinks(func(l LinkRow, out bool) bool {
		if out {
			outs = append(outs, l)
		} else {
			ins = append(ins, l)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var reds []RedirectRow
	if err := r.VisitRedirects(func(rd RedirectRow) bool { reds = append(reds, rd); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, g.OutLinks) || !reflect.DeepEqual(ins, g.InLinks) || !reflect.DeepEqual(reds, g.Redirects) {
		t.Fatal("links or redirects differ from the golden")
	}
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
// byte, and every block is what a fresh flate.NewWriter makes of it.
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
	for _, s := range blockSections {
		if d := r.dicts[s]; len(d) != 0 {
			t.Fatalf("%s dictionary: %d bytes; Build writes them empty", sectionName[s], len(d))
		}
		for idx := range r.tables[s].offs {
			raw, err := r.readBlock(s, idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blockComp(t, r, first, s, idx), deflate(t, raw, nil)) {
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

// rewriteLastBlock replaces the last block of section s with a validly
// framed and checksummed block holding mangle(raw), shifting the sections
// after it and re-encoding the footer.
func rewriteLastBlock(t *testing.T, file []byte, s int, mangle func([]byte) []byte) []byte {
	t.Helper()
	r := openBytes(t, file)
	offs := r.tables[s].offs
	raw, err := r.readBlock(s, len(offs)-1)
	if err != nil {
		t.Fatal(err)
	}
	raw = mangle(append([]byte(nil), raw...))
	comp := deflate(t, raw, nil)
	var frame enc
	frame.u32(uint32(len(comp)))
	frame.u32(uint32(len(raw)))
	frame.u32(crc32.ChecksumIEEE(comp))
	frame.raw(comp)

	start := r.ft.sections[s].off + offs[len(offs)-1]
	end := start + 12 + uint64(binary.LittleEndian.Uint32(file[start:]))
	delta := uint64(len(frame.b)) - (end - start) // wraps; additions below wrap back
	ft := r.ft
	for k := range ft.sections {
		if ft.sections[k].off >= end {
			ft.sections[k].off += delta
		}
	}
	ft.sections[s].len += delta
	footerStart := len(file) - 8 - int(binary.LittleEndian.Uint32(file[len(file)-8:]))
	out := append(append([]byte(nil), file[:start]...), frame.b...)
	out = append(out, file[end:footerStart]...)
	var e enc
	ft.encode(&e)
	return append(out, e.b...)
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
