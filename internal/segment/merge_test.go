package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// content is everything a reader returns for a segment.
type content struct {
	Shard          int
	MinSeq, MaxSeq int64
	Docs           []DocRecord
	Postings       map[string][][2]int64
	DocFreq        map[string]int
	Links          []LinkRow
	Redirects      []RedirectRow
}

// invertDocs is the inverted index of docs' term vectors: each term's
// (seq, tf) pairs in document order.
func invertDocs(docs []DocRecord) map[string][][2]int64 {
	inv := map[string][][2]int64{}
	for _, d := range docs {
		for _, tc := range d.Terms {
			inv[tc.Term] = append(inv[tc.Term], [2]int64{d.Seq, int64(tc.TF)})
		}
	}
	return inv
}

// readContent reads r through every public read path: meta, term vectors
// and text by position, postings and document frequency for every term of
// a term vector (plus misses), links and redirects. The postings must be
// the inversion of the term vectors read.
func readContent(r *Reader) (content, error) {
	c := content{Shard: r.Shard(), MinSeq: r.MinSeq(), MaxSeq: r.MaxSeq(), Postings: map[string][][2]int64{}, DocFreq: map[string]int{}}
	var rerr error
	err := r.VisitMeta(func(pos int, seq int64, m Meta) bool {
		vec, err := r.TermVec(pos)
		if err != nil {
			rerr = err
			return false
		}
		text, err := r.Text(pos)
		if err != nil {
			rerr = err
			return false
		}
		c.Docs = append(c.Docs, DocRecord{Seq: seq, Meta: m, Terms: vec, Text: text})
		return true
	})
	if err == nil {
		err = rerr
	}
	if err != nil {
		return c, err
	}
	if len(c.Docs) != r.DocCount() {
		return c, fmt.Errorf("visited %d of %d documents", len(c.Docs), r.DocCount())
	}
	want := invertDocs(c.Docs)
	probe := map[string]bool{"": true, "aaaa": true, "zzzz": true}
	for term := range want {
		probe[term] = true
	}
	for term := range probe {
		var ps [][2]int64
		if err := r.VisitPostings(term, func(seq int64, tf int) { ps = append(ps, [2]int64{seq, int64(tf)}) }); err != nil {
			return c, err
		}
		df, err := r.DocFreq(term)
		if err != nil {
			return c, err
		}
		if ps != nil {
			c.Postings[term] = ps
		}
		if df != 0 {
			c.DocFreq[term] = df
		}
		if !reflect.DeepEqual(ps, want[term]) || df != len(want[term]) {
			return c, fmt.Errorf("term %q: postings %v (df %d), but the term vectors hold %v", term, ps, df, want[term])
		}
	}
	if err := r.VisitLinks(func(l LinkRow) bool { c.Links = append(c.Links, l); return true }); err != nil {
		return c, err
	}
	err = r.VisitRedirects(func(rd RedirectRow) bool { c.Redirects = append(c.Redirects, rd); return true })
	return c, err
}

// requireSameContent fails unless got and want read back identically.
func requireSameContent(t *testing.T, label string, got, want *Reader) {
	t.Helper()
	g, err := readContent(got)
	if err != nil {
		t.Fatalf("%s: reading merged segment: %v", label, err)
	}
	w, err := readContent(want)
	if err != nil {
		t.Fatalf("%s: reading reference segment: %v", label, err)
	}
	if diff := contentDiff(g, w); diff != "" {
		t.Fatalf("%s: merged segment differs from Build over the live rows: %s", label, diff)
	}
}

func contentDiff(g, w content) string {
	switch {
	case g.Shard != w.Shard || g.MinSeq != w.MinSeq || g.MaxSeq != w.MaxSeq:
		return fmt.Sprintf("footer shard %d seqs [%d,%d], want %d [%d,%d]", g.Shard, g.MinSeq, g.MaxSeq, w.Shard, w.MinSeq, w.MaxSeq)
	case len(g.Docs) != len(w.Docs):
		return fmt.Sprintf("%d docs, want %d", len(g.Docs), len(w.Docs))
	}
	for i := range w.Docs {
		if !reflect.DeepEqual(g.Docs[i], w.Docs[i]) {
			return fmt.Sprintf("position %d:\n got %+v\nwant %+v", i, g.Docs[i], w.Docs[i])
		}
	}
	switch {
	case !reflect.DeepEqual(g.Postings, w.Postings):
		return "postings differ"
	case !reflect.DeepEqual(g.DocFreq, w.DocFreq):
		return "document frequencies differ"
	case !reflect.DeepEqual(g.Links, w.Links):
		return fmt.Sprintf("%d link rows, want %d", len(g.Links), len(w.Links))
	case !reflect.DeepEqual(g.Redirects, w.Redirects):
		return fmt.Sprintf("%d redirect rows, want %d", len(g.Redirects), len(w.Redirects))
	}
	return ""
}

// liveSet is a test's view of which rows survive a merge.
type liveSet map[int64]bool

func (l liveSet) fn(seq int64) bool { return l[seq] }

// reference builds what a merge of inputs under live must read back as:
// Build over the surviving rows, and every input's link and redirect rows
// in input order.
func reference(t *testing.T, inputs []*Reader, live liveSet) *Reader {
	t.Helper()
	in := BuildInput{Shard: inputs[0].Shard()}
	for _, r := range inputs {
		c, err := readContent(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Docs {
			if live[d.Seq] {
				in.Docs = append(in.Docs, d)
			}
		}
		in.OutLinks = append(in.OutLinks, c.Links...)
		in.Redirects = append(in.Redirects, c.Redirects...)
	}
	_, r := buildTemp(t, in)
	return r
}

// allLive returns every row of inputs.
func allLive(t *testing.T, inputs ...*Reader) liveSet {
	t.Helper()
	live := liveSet{}
	for _, r := range inputs {
		if err := r.VisitMeta(func(_ int, seq int64, _ Meta) bool { live[seq] = true; return true }); err != nil {
			t.Fatal(err)
		}
	}
	return live
}

func mergeTemp(t *testing.T, inputs []*Reader, live liveSet) (MergeStats, *Reader) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "merged.bsg")
	st, err := Merge(path, inputs, live.fn)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != st.Bytes {
		t.Fatalf("Merge reported %d bytes, file has %v %v", st.Bytes, fi, err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open merged: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	var seqs []int64
	if err := r.VisitMeta(func(_ int, seq int64, _ Meta) bool { seqs = append(seqs, seq); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, st.Seqs) {
		t.Fatalf("Merge returned seqs %v, file holds %v", st.Seqs, seqs)
	}
	return st, r
}

// splitInput cuts docs (and, in proportion, links and redirects) into
// consecutive inputs of the given document counts.
func splitInput(all BuildInput, sizes []int) []BuildInput {
	var out []BuildInput
	d, l, rd := 0, 0, 0
	for k, n := range sizes {
		in := BuildInput{Shard: all.Shard, Docs: all.Docs[d : d+n]}
		nl, nr := len(all.OutLinks)*(d+n)/len(all.Docs), len(all.Redirects)*(d+n)/len(all.Docs)
		if k == len(sizes)-1 {
			nl, nr = len(all.OutLinks), len(all.Redirects)
		}
		in.OutLinks, in.Redirects = all.OutLinks[l:nl], all.Redirects[rd:nr]
		d, l, rd = d+n, nl, nr
		out = append(out, in)
	}
	return out
}

// buildBytes builds in and returns the file's bytes.
func buildBytes(t testing.TB, in BuildInput) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.bsg")
	if _, err := Build(path, in); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeMatchesBuild: over random documents, tombstones and input
// splits around the block size, a merge reads back exactly as Build over
// the surviving rows does.
func TestMergeMatchesBuild(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		docs := 300
		if trial == 0 {
			docs = 1100 // link blocks large enough to copy
		}
		all := genInput(int64(100+trial), docs)
		var sizes []int
		for left := docs; left > 0; {
			n := []int{1, 63, 64, 65, 128, 1 + rng.Intn(150)}[rng.Intn(6)]
			if trial == 0 {
				n = 600
			}
			n = min(n, left)
			sizes = append(sizes, n)
			left -= n
		}
		dead := []float64{0, 0.1, 0.5, 1}[trial%4]
		var inputs []*Reader
		live := liveSet{}
		for _, in := range splitInput(all, sizes) {
			inputs = append(inputs, openBytes(t, buildBytes(t, in)))
			touched := rng.Intn(2) == 0 // half the inputs keep every row as stored
			for _, d := range in.Docs {
				if touched && rng.Float64() < dead {
					continue
				}
				live[d.Seq] = true
			}
		}
		label := fmt.Sprintf("trial %d (splits %v, dead %.2f)", trial, sizes, dead)
		st, merged := mergeTemp(t, inputs, live)
		requireSameContent(t, label, merged, reference(t, inputs, live))
		t.Logf("%s: copied %d blocks, re-encoded %d", label, st.Copied, st.Reencoded)
		if dead == 0 && st.Copied == 0 && docs > 2*blockDocs {
			t.Fatalf("%s: copied no block", label)
		}
	}
}

// TestMergeCopiesCleanBlocks: full blocks with no dead rows are copied
// frame for frame — the merged file holds the inputs' compressed bytes —
// and a dead row re-encodes only its own block.
func TestMergeCopiesCleanBlocks(t *testing.T) {
	all := genInput(21, 6*blockDocs)
	var links []LinkRow
	for len(links) < 2*linkBlockRows {
		links = append(links, all.OutLinks...)
	}
	links = links[:2*linkBlockRows]
	all.OutLinks, all.Redirects = nil, nil
	split := splitInput(all, []int{2 * blockDocs, blockDocs, 3 * blockDocs})
	split[2].OutLinks = links
	var inputs []*Reader
	var files [][]byte
	for _, in := range split {
		b := buildBytes(t, in)
		files = append(files, b)
		inputs = append(inputs, openBytes(t, b))
	}
	live := allLive(t, inputs...)
	st, merged := mergeTemp(t, inputs, live)
	requireSameContent(t, "clean", merged, reference(t, inputs, live))
	if st.Reencoded != 0 || st.Copied != 6+2 {
		t.Fatalf("clean merge copied %d blocks and re-encoded %d; want 8 and 0", st.Copied, st.Reencoded)
	}
	mergedFile, err := os.ReadFile(merged.Path())
	if err != nil {
		t.Fatal(err)
	}
	blk := 0
	for i, in := range inputs {
		for b := range in.tables[secText].offs {
			for _, s := range []int{secMeta, secTermVec, secText} {
				if string(blockComp(t, merged, mergedFile, s, blk)) != string(blockComp(t, in, files[i], s, b)) {
					t.Fatalf("%s block %d is not input %d's block %d", sectionName[s], blk, i, b)
				}
			}
			blk++
		}
	}

	// One dead row in the middle input: its block is re-encoded, the rest
	// copied, and the 63 rows left make a block of their own.
	delete(live, all.Docs[2*blockDocs+7].Seq)
	st, merged = mergeTemp(t, inputs, live)
	requireSameContent(t, "one dead row", merged, reference(t, inputs, live))
	if st.Reencoded != 1 || st.Copied != 5+2 {
		t.Fatalf("one dead row: copied %d, re-encoded %d; want 7 and 1", st.Copied, st.Reencoded)
	}
	if rows := merged.tables[secMeta].rows(2); rows != blockDocs-1 {
		t.Fatalf("re-encoded block holds %d rows, want %d", rows, blockDocs-1)
	}
}

// atLevel rewrites every block of section s of file at DEFLATE level,
// framed the way a build at that level writes it.
func atLevel(t *testing.T, file []byte, s, level int) []byte {
	t.Helper()
	r := openBytes(t, file)
	var blocks []block
	for idx := range r.tables[s].offs {
		raw, err := r.readBlock(s, idx)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block{raw: append([]byte(nil), raw...), rows: r.tables[s].rows(idx)})
	}
	var buf bytes.Buffer
	w := &countingWriter{w: bufio.NewWriter(&buf)}
	if _, err := writeBlockSection(w, blocks, level); err != nil {
		t.Fatal(err)
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	sec := r.ft.sections[s]
	return splice(t, file, s, sec.off, sec.off+sec.len, buf.Bytes())
}

// TestMergeCopiesOldLevelBlocks: a segment whose document blocks are at
// DefaultCompression, as every build wrote them before the document
// sections moved to docLevel, merges with a new one. Its clean blocks are
// copied byte for byte at their old level, the new one's at docLevel, and
// the result reads back as Build over the same rows.
func TestMergeCopiesOldLevelBlocks(t *testing.T) {
	all := genInput(31, 4*blockDocs)
	all.OutLinks, all.Redirects = nil, nil
	split := splitInput(all, []int{2 * blockDocs, 2 * blockDocs})
	var files [][]byte
	var inputs []*Reader
	for i, in := range split {
		b := buildBytes(t, in)
		if i == 0 {
			for _, s := range []int{secMeta, secTermVec, secText} {
				b = atLevel(t, b, s, flate.DefaultCompression)
			}
		}
		files = append(files, b)
		inputs = append(inputs, openBytes(t, b))
	}
	live := allLive(t, inputs...)
	st, merged := mergeTemp(t, inputs, live)
	requireSameContent(t, "old level + new level", merged, reference(t, inputs, live))
	if st.Reencoded != 0 || st.Copied != 4 {
		t.Fatalf("copied %d blocks and re-encoded %d; want 4 and 0", st.Copied, st.Reencoded)
	}
	mergedFile, err := os.ReadFile(merged.Path())
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{flate.DefaultCompression, docLevel}
	blk, differ := 0, false
	for i, in := range inputs {
		for b := range in.tables[secText].offs {
			for _, s := range []int{secMeta, secTermVec, secText} {
				got := blockComp(t, merged, mergedFile, s, blk)
				if !bytes.Equal(got, blockComp(t, in, files[i], s, b)) {
					t.Fatalf("%s block %d is not input %d's block %d", sectionName[s], blk, i, b)
				}
				raw, err := in.readBlock(s, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, deflate(t, raw, levels[i])) {
					t.Fatalf("%s block %d is not input %d's rows at level %d", sectionName[s], blk, i, levels[i])
				}
				differ = differ || !bytes.Equal(got, deflate(t, raw, levels[1-i]))
			}
			blk++
		}
	}
	if !differ {
		t.Fatal("every block encodes the same at both levels; the test shows nothing")
	}
}

// TestMergeRejectsBadInputs: inputs out of seq order, overlapping, or of
// different shards fail before anything is written.
func TestMergeRejectsBadInputs(t *testing.T) {
	a, b := genInput(41, 10), genInput(42, 10)
	for i := range b.Docs {
		b.Docs[i].Seq += a.Docs[len(a.Docs)-1].Seq
	}
	ra, rb := openBytes(t, buildBytes(t, a)), openBytes(t, buildBytes(t, b))
	overlap := a
	overlap.Docs = a.Docs[5:]
	other := b
	other.Shard = 9
	cases := map[string][]*Reader{
		"none":      nil,
		"reversed":  {rb, ra},
		"overlap":   {ra, openBytes(t, buildBytes(t, overlap))},
		"two shard": {ra, openBytes(t, buildBytes(t, other))},
	}
	for name, inputs := range cases {
		path := filepath.Join(t.TempDir(), "m.bsg")
		if _, err := Merge(path, inputs, allLive(t, inputs...).fn); !errors.Is(err, errMergeInputs) {
			t.Fatalf("%s: Merge = %v, want errMergeInputs", name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: a rejected merge left %s", name, path)
		}
	}
}

// unevenSegment is a merge output whose blocks hold uneven row counts.
func unevenSegment(t testing.TB) []byte {
	t.Helper()
	all := genInput(51, 3*blockDocs+40)
	var inputs []*Reader
	for _, in := range splitInput(all, []int{blockDocs + 9, blockDocs, blockDocs + 31}) {
		inputs = append(inputs, openBytes(t, buildBytes(t, in)))
	}
	live := liveSet{}
	for i, d := range all.Docs {
		if i%9 != 4 || i >= blockDocs+9 {
			live[d.Seq] = true
		}
	}
	path := filepath.Join(t.TempDir(), "uneven.bsg")
	if _, err := Merge(path, inputs, live.fn); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withRows rewrites section s's block table to the given row counts,
// checksummed, so only the counts are wrong.
func withRows(t testing.TB, file []byte, s int, rows []uint32) []byte {
	t.Helper()
	r := openBytes(t, file)
	sec := r.ft.sections[s]
	out := append([]byte(nil), file...)
	tb := out[sec.off+sec.len-uint64(4+12*len(rows)+4) : sec.off+sec.len]
	for i, n := range rows {
		binary.LittleEndian.PutUint32(tb[4+12*i+8:], n)
	}
	binary.LittleEndian.PutUint32(tb[len(tb)-4:], crc32.ChecksumIEEE(tb[:len(tb)-4]))
	return out
}

// badRowCounts returns the uneven segment with its block tables' row
// counts mangled every way Open must reject.
func badRowCounts(t testing.TB) map[string][]byte {
	t.Helper()
	file := unevenSegment(t)
	r := openBytes(t, file)
	tb := r.tables[secTermVec]
	rows := make([]uint32, len(tb.offs))
	for i := range rows {
		rows[i] = uint32(tb.rows(i))
	}
	if len(rows) < 2 || rows[0] == rows[1] {
		t.Fatalf("uneven segment blocks its rows %v", rows)
	}
	mangle := func(s int, f func([]uint32)) []byte {
		cp := append([]uint32(nil), rows...)
		f(cp)
		return withRows(t, file, s, cp)
	}
	return map[string][]byte{
		"termvec disagrees with meta": mangle(secTermVec, func(c []uint32) { c[0]--; c[1]++ }),
		"zero rows":                   mangle(secText, func(c []uint32) { c[1] += c[0]; c[0] = 0 }),
		"overflowing rows":            mangle(secMeta, func(c []uint32) { c[0] = ^uint32(0) }),
		"rows short of the footer":    mangle(secMeta, func(c []uint32) { c[len(c)-1]-- }),
	}
}

// TestOpenRejectsBadRowCounts: a table whose row counts are zero,
// overflow, miss the footer's count or disagree across the document
// sections fails Open with ErrCorrupt.
func TestOpenRejectsBadRowCounts(t *testing.T) {
	for name, b := range badRowCounts(t) {
		path := filepath.Join(t.TempDir(), "bad.bsg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestUnevenBlocksRead: a file whose blocks hold uneven row counts reads
// every position in shuffled order as its sequential walk does.
func TestUnevenBlocksRead(t *testing.T) {
	r := openBytes(t, unevenSegment(t))
	if got := []int{r.tables[secText].rows(0), r.tables[secText].rows(1)}; got[0] == got[1] {
		t.Fatalf("first blocks hold %v rows; want uneven", got)
	}
	c, err := readContent(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rand.New(rand.NewSource(1)).Perm(len(c.Docs)) {
		if vec, err := r.TermVec(p); err != nil || !reflect.DeepEqual(vec, c.Docs[p].Terms) {
			t.Fatalf("TermVec(%d): %v", p, err)
		}
		if text, err := r.Text(p); err != nil || text != c.Docs[p].Text {
			t.Fatalf("Text(%d): %v", p, err)
		}
	}
}
