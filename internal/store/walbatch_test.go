package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
	"github.com/bingo-search/bingo/internal/textproc"
)

// TestFlushAppendsOneRecordPerShard: a flush that logs rows on k shards —
// documents, out-links and redirects alike — appends exactly k WAL
// records. Shards that only receive in-link index entries append none.
func TestFlushAppendsOneRecordPerShard(t *testing.T) {
	s := openTiered(t, t.TempDir(), 4, testTierOpts())
	defer s.Close()
	byShard := make([][]string, 4)
	for i := 0; ; i++ {
		u := fmt.Sprintf("http://h%d.example/p%d", i%7, i)
		sh := s.ShardForURL(u)
		byShard[sh] = append(byShard[sh], u)
		if full := func() bool {
			for _, us := range byShard {
				if len(us) < 3 {
					return false
				}
			}
			return true
		}(); full {
			break
		}
	}
	for k := 1; k <= 3; k++ {
		w := s.NewWorkspace(1 << 20)
		for sh := 0; sh < k; sh++ {
			for _, u := range byShard[sh][:2] {
				w.Add(Document{URL: u, Text: "body " + u, Terms: map[string]int{"alpha": 1}})
				w.AddLink(Link{From: u, To: byShard[3][0], Anchor: "to shard 3"})
				w.AddLink(Link{From: u, To: byShard[sh][2]})
			}
			w.AddRedirect(Redirect{From: byShard[sh][2], To: byShard[sh][0]})
		}
		before := mWALAppends.Value()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := mWALAppends.Value() - before; got != int64(k) {
			t.Fatalf("a flush touching %d shards appended %d WAL records, want %d", k, got, k)
		}
	}
}

// TestTornBatchRecordIsAtomic: a WAL cut anywhere inside its last batch
// record reopens without any of that record's rows — no document without
// its out-links, no link or redirect without its document — and with
// every earlier record's rows intact.
func TestTornBatchRecordIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	walPath := filepath.Join(dir, "shard-00", "wal-000001.log")
	const rounds = 5
	url := func(r, i int) string { return fmt.Sprintf("http://r%d.example/p%d", r, i) }
	var lastStart int64
	for r := 0; r < rounds; r++ {
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		lastStart = st.Size()
		w := s.NewWorkspace(1 << 20)
		for i := 0; i < 3; i++ {
			w.Add(Document{URL: url(r, i), Text: fmt.Sprintf("round %d page %d", r, i), Terms: map[string]int{"alpha": 1, fmt.Sprintf("r%d", r): i + 1}})
			for j := 0; j < 4; j++ {
				w.AddLink(Link{From: url(r, i), To: url(r, 10+j), Anchor: fmt.Sprintf("a%d", j)})
			}
		}
		w.AddRedirect(Redirect{From: url(r, 99), To: url(r, 0)})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	end := int64(len(orig))
	for _, cut := range []int64{lastStart + 1, lastStart + 8, (lastStart + end) / 2, end - 1} {
		if err := os.WriteFile(walPath, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTiered(t, dir, 1, testTierOpts())
		if n := re.NumDocs(); n != 3*(rounds-1) {
			t.Fatalf("cut at %d of %d: %d documents, want %d", cut, end, n, 3*(rounds-1))
		}
		if n := len(re.Links()); n != 12*(rounds-1) {
			t.Fatalf("cut at %d: %d links, want %d", cut, n, 12*(rounds-1))
		}
		if n := len(re.Redirects()); n != rounds-1 {
			t.Fatalf("cut at %d: %d redirects, want %d", cut, n, rounds-1)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < 3; i++ {
				d, err := re.GetByURL(url(r, i))
				succ := re.Successors(url(r, i))
				if r == rounds-1 {
					if err == nil || len(succ) != 0 {
						t.Fatalf("cut at %d: torn record's page %s came back (err %v, %d out-links)", cut, url(r, i), err, len(succ))
					}
					continue
				}
				if err != nil || d.Text != fmt.Sprintf("round %d page %d", r, i) || len(succ) != 4 {
					t.Fatalf("cut at %d: page %s = %q, %v with %d out-links; want it whole with 4", cut, url(r, i), d.Text, err, len(succ))
				}
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchRecordCorruption: a CRC-valid batch record whose DEFLATE stream
// or raw length is wrong fails to replay with ErrCorrupt.
func TestBatchRecordCorruption(t *testing.T) {
	rec, comp := sealedBatch(&fuzzMixed, 3)
	rawLen := uint64(len(batchBody(&fuzzMixed)))
	trailing := append(batchBody(&fuzzMixed), 0)
	for name, payload := range map[string][]byte{
		"truncated stream":   rec[:len(rec)-3],
		"raw length +1":      batchHeader(3, rawLen+1, comp),
		"raw length -1":      batchHeader(3, rawLen-1, comp),
		"raw length too big": batchHeader(3, 1032*uint64(len(comp))+1, comp),
		"trailing body byte": batchHeader(3, uint64(len(trailing)), segment.Deflate(nil, trailing)),
		"seq zero":           batchHeader(0, rawLen, comp),
	} {
		s := replayStore()
		var buf []byte
		if err := s.applyWALRecord(s.shards[0], rec, &buf, nil); err != nil {
			t.Fatalf("valid record: %v", err)
		}
		if err := s.applyWALRecord(s.shards[0], payload, &buf, nil); !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("%s: replay = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOpenTieredRejectsOlderWAL: a WAL holding a record kind only an older
// release writes — a per-relation record (kind 1), a stored row's new topic
// (kind 5) or a batch that carried its term vectors (kind 7) — fails the
// open with an error that names the log and says so — not corruption — and
// the failed open deletes no file, not even another shard's orphans.
func TestOpenTieredRejectsOlderWAL(t *testing.T) {
	kind7, _ := sealedBatch(&fuzzMixed, 1)
	kind7[0] = 7
	kind5 := walRecord(5, tierURL(6, 4), func(e *segment.Enc) {
		e.Str("ROOT/os")
		e.F64(0.5)
	})
	for name, rec := range map[string][]byte{
		"kind 1": {1, 0}, // an empty kind-1 docs record
		"kind 5": kind5,
		"kind 7": kind7,
	} {
		requireOpenRejects(t, name, rec, "older release")
	}
}

// TestOpenTieredRejectsOtherPipeline: a batch record written under another
// textproc pipeline version, whose term vectors this binary would derive
// differently, fails the open the same way, naming the log.
func TestOpenTieredRejectsOtherPipeline(t *testing.T) {
	_, comp := sealedBatch(&fuzzMixed, 1)
	other := versionedBatch(textproc.PipelineVersion+1, 1, uint64(len(batchBody(&fuzzMixed))), comp)
	requireOpenRejects(t, "pipeline version +1", other, "different text analyzer")
}

// requireOpenRejects appends rec to a closed two-shard store's shard-1 WAL
// and requires the reopen to fail with an error naming that log and
// holding want, not ErrCorrupt, without changing any file.
func requireOpenRejects(t *testing.T, name string, rec []byte, want string) {
	t.Helper()
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	fillTier(t, s, 6, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "shard-00", "seg-000099.bsg")
	if err := os.WriteFile(orphan, []byte("left by a freeze that never committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "shard-01", "wal-000001.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := segment.OpenWALForAppend(walPath, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(rec, true); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	re, err := OpenTiered(dir, 2, testTierOpts())
	if err == nil {
		re.Close()
		t.Fatalf("%s: OpenTiered replayed the record", name)
	}
	if !strings.Contains(err.Error(), walPath) || !strings.Contains(err.Error(), want) || errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("%s: OpenTiered = %v; want an error naming %s and %q, not corruption", name, err, walPath, want)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: the failed open changed the data directory: %d files before, %d after", name, len(before), len(after))
	}
}

// TestBatchBodyCarriesNoTerms: a document's term vector is not part of its
// WAL batch body — the body is the same with or without one, and none of
// its terms is in it — and replay derives it from the title and text.
func TestBatchBodyCarriesNoTerms(t *testing.T) {
	d := Document{URL: "http://t.example/", Title: "Recovery", Text: "logging logs"}
	bare := batchBody(&wsShard{docs: []Document{d}})
	d.Terms = map[string]int{"zzfabricated": 7}
	if body := batchBody(&wsShard{docs: []Document{d}}); !bytes.Equal(body, bare) || bytes.Contains(body, []byte("zzfabricated")) {
		t.Fatalf("a document's terms changed its batch body: %q vs %q", body, bare)
	}
	s := replayStore()
	if err := s.applyBatch(s.shards[0], 1, bare, nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetByURL(d.URL)
	if want := map[string]int{"recoveri": 1, "log": 2}; err != nil || !reflect.DeepEqual(got.Terms, want) {
		t.Fatalf("replayed terms %v, %v; want %v", got.Terms, err, want)
	}
}

// TestWorkspaceFlushesPerDocuments: a workspace of batch B bulk-loads once
// per B documents, whether its pages carry 0, 1 or 40 out-links.
func TestWorkspaceFlushesPerDocuments(t *testing.T) {
	const batch, pages = 8, 3 * 8
	for _, links := range []int{0, 1, 40} {
		s := New()
		w := s.NewWorkspace(batch)
		before := mBulkLoads.Value()
		for p := 0; p < pages; p++ {
			u := fmt.Sprintf("http://h.example/l%d/p%d", links, p)
			w.Add(Document{URL: u, Terms: map[string]int{"alpha": 1}})
			for j := 0; j < links; j++ {
				w.AddLink(Link{From: u, To: fmt.Sprintf("http://h.example/t%d", j)})
			}
		}
		// The third batch is full but waits for the next Add or a Flush.
		if got := mBulkLoads.Value() - before; got != pages/batch-1 {
			t.Fatalf("%d links per page: %d bulk loads after %d pages, want %d", links, got, pages, pages/batch-1)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := mBulkLoads.Value() - before; got != pages/batch {
			t.Fatalf("%d links per page: %d bulk loads, want %d", links, got, pages/batch)
		}
		if s.NumDocs() != pages || len(s.Links()) != pages*links {
			t.Fatalf("%d links per page: %d documents and %d links stored", links, s.NumDocs(), len(s.Links()))
		}
	}
}

// TestLinkOnlyWorkspaceFlushesOnFlush: links and redirects never fill a
// batch; a workspace holding only them bulk-loads on Flush alone.
func TestLinkOnlyWorkspaceFlushesOnFlush(t *testing.T) {
	s := New()
	w := s.NewWorkspace(4)
	before := mBulkLoads.Value()
	for i := 0; i < 100; i++ {
		w.AddLink(Link{From: "http://a.example/", To: fmt.Sprintf("http://b.example/%d", i)})
		w.AddRedirect(Redirect{From: fmt.Sprintf("http://r.example/%d", i), To: "http://a.example/"})
	}
	if got := mBulkLoads.Value() - before; got != 0 || len(s.Links()) != 0 {
		t.Fatalf("before Flush: %d bulk loads, %d links stored; want 0 and 0", got, len(s.Links()))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mBulkLoads.Value() - before; got != 1 || len(s.Links()) != 100 || len(s.Redirects()) != 100 {
		t.Fatalf("after Flush: %d bulk loads, %d links, %d redirects; want 1, 100, 100", got, len(s.Links()), len(s.Redirects()))
	}
}

// TestPageStraddlingRowBoundaryIsAtomic: with a crawl's default batch of 32,
// the nine pages of one document and 4 out-links buffered after a first
// flush reach 32 rows inside the seventh one's links. That page still lands
// with all its out-links, in the batch's one WAL record, so a log cut
// anywhere brings every page back whole or not at all.
func TestPageStraddlingRowBoundaryIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	walPath := filepath.Join(dir, "shard-00", "wal-000001.log")
	const pages, links = 12, 4
	url := func(i int) string { return fmt.Sprintf("http://s.example/p%d", i) }
	w := s.NewWorkspace(32)
	for i := 0; i < pages; i++ {
		w.Add(Document{URL: url(i), Text: fmt.Sprintf("page %d", i), Terms: map[string]int{"alpha": 1}})
		for j := 0; j < links; j++ {
			w.AddLink(Link{From: url(i), To: url(100 + j), Anchor: fmt.Sprintf("a%d", j)})
		}
		if i == 2 {
			// An earlier record, so that cuts also fall between records.
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := mWALAppends.Value()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mWALAppends.Value() - before; got != 1 {
		t.Fatalf("9 pages of 5 rows appended %d WAL records, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	end := len(orig)
	for cut := 0; cut <= end; cut += max(1, end/40) {
		if err := os.WriteFile(walPath, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTiered(t, dir, 1, testTierOpts())
		for i := 0; i < pages; i++ {
			_, err := re.GetByURL(url(i))
			if n := len(re.Successors(url(i))); (err == nil) != (n == links) || (err != nil && n != 0) {
				t.Fatalf("cut at %d of %d: page %d is torn (err %v, %d of %d out-links)", cut, end, i, err, n, links)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
