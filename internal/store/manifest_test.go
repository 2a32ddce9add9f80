package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
)

// fourFreezeDir writes a closed one-shard data directory at fanout 4: four
// freezes merged into one segment, then three more freezes.
func fourFreezeDir(t *testing.T, dir string) {
	t.Helper()
	s := openTiered(t, dir, 1, testTierOpts())
	for k := 0; k < 7; k++ {
		writeDocs(t, s, 8*k, 8*(k+1), 40)
		freezeAll(t, s)
		if k == 3 {
			compactAll(t, s)
		}
	}
	if n := len(s.shards[0].tier.state.load().segs); n != 4 {
		t.Fatalf("%d segments, want 4", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCountlessManifest: a manifest without freeze counts, as older
// releases wrote it, opens with every segment counted as one freeze, so
// the first compaction after an upgrade merges the already-merged segment
// once more, and the next manifest records the merge's count.
func TestOpenCountlessManifest(t *testing.T) {
	dir := t.TempDir()
	fourFreezeDir(t, dir)
	rewriteManifest(t, dir, func(man *tierManifest) { man.Freezes = nil })
	s := openTiered(t, dir, 1, testTierOpts())
	defer s.Close()
	compactAll(t, s)
	segs := s.shards[0].tier.state.load().segs
	if len(segs) != 1 || segs[0].freezes != 4 || segs[0].r.DocCount() != 56 {
		t.Fatalf("after compacting four count-less segments: %d segments, the first holding %d freezes and %d documents; want 1, 4 and 56", len(segs), segs[0].freezes, segs[0].r.DocCount())
	}
}

// TestOpenRejectsBadFreezeCounts: a manifest whose freeze counts do not
// match its segments, or hold a count below one or beyond the segment IDs
// the shard has allocated, fails the open with segment.ErrCorrupt naming the
// manifest, and the failed open changes no file.
func TestOpenRejectsBadFreezeCounts(t *testing.T) {
	for name, edit := range map[string]func(man *tierManifest){
		"short":    func(man *tierManifest) { man.Freezes = man.Freezes[1:] },
		"zero":     func(man *tierManifest) { man.Freezes[2] = 0 },
		"too many": func(man *tierManifest) { man.Freezes[0] = man.NextSegID },
		"listed twice": func(man *tierManifest) {
			man.Segments[1] = man.Segments[0]
		},
		"outside the shard": func(man *tierManifest) { man.Segments[0] = "../" + man.Segments[0] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fourFreezeDir(t, dir)
			rewriteManifest(t, dir, edit)
			path := filepath.Join(dir, "shard-00", "MANIFEST.json")
			before := dirFiles(t, dir)
			s, err := OpenTiered(dir, 1, testTierOpts())
			if err == nil {
				s.Close()
				t.Fatal("OpenTiered accepted the manifest")
			}
			if !errors.Is(err, segment.ErrCorrupt) || !strings.Contains(err.Error(), path) {
				t.Fatalf("OpenTiered = %v; want segment.ErrCorrupt naming %s", err, path)
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the failed open changed the data directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// FuzzManifest: a shard whose MANIFEST.json holds any bytes either opens
// cleanly or fails with a typed error naming the manifest — segment
// .ErrCorrupt, or errOlderManifest for a topic override. A manifest that
// decodes cleanly can still list a segment the directory lacks; that open
// fails with fs.ErrNotExist.
func FuzzManifest(f *testing.F) {
	for _, seed := range []string{
		`{"walSeq":3,"nextSeq":120,"nextSegID":9,"segments":["seg-000004.bsg","seg-000008.bsg"],"freezes":[4,1],"tombs":[7,9]}`,
		`{"walSeq":1,"nextSeq":0,"nextSegID":1,"segments":[]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":4,"segments":[],"freezes":[]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":3,"segments":["seg-000001.bsg","seg-000002.bsg"]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":3,"segments":["seg-000001.bsg"],"freezes":[1,1]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":3,"segments":["seg-000001.bsg"],"freezes":[0]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":3,"segments":["seg-000001.bsg"],"freezes":[9223372036854775807]}`,
		`{"walSeq":2,"nextSeq":10,"nextSegID":3,"segments":["../seg-000001.bsg"]}`,
		`{"walSeq":0,"nextSeq":-1,"nextSegID":0,"segments":null}`,
		`{"walSeq":1,"nextSegID":2,"segments":[],"overrides":{"5":{"topic":"ROOT/os","hasTopic":true}}}`,
		`{"walSeq":1,"nextSegID":2,"segments":[],"overrides":{"5":{"training":true,"hasTraining":true}}}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "shard-00", "MANIFEST.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenTiered(dir, 1, testTierOpts())
		if err == nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if man, derr := decodeManifest(path, b); derr == nil {
			if len(man.Segments) == 0 || !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a manifest that decodes cleanly failed the open: %v", err)
			}
			return
		}
		if !errors.Is(err, segment.ErrCorrupt) && !errors.Is(err, errOlderManifest) || !strings.Contains(err.Error(), path) {
			t.Fatalf("OpenTiered = %v; want a typed error naming %s", err, path)
		}
	})
}
