package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
)

// olderDir writes a closed two-shard data directory — 40 frozen documents
// and 20 in the WAL — and returns the closed store, with its documents as
// they were stored and which of them were frozen.
func olderDir(t *testing.T, dir string) (s *Store, docs []Document, cold map[DocID]bool) {
	t.Helper()
	s = openTiered(t, dir, 2, testTierOpts())
	fillTier(t, s, 6, 40)
	freezeAll(t, s)
	fillTierRange(t, s, 6, 40, 60)
	docs = s.All()
	cold = map[DocID]bool{}
	for _, sh := range s.shards {
		for id := range sh.cold {
			cold[id] = true
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s, docs, cold
}

// setManifestOverrides rewrites shard's manifest with an "overrides"
// object, the field through which older releases persisted a frozen row's
// later topic or training flag.
func setManifestOverrides(t *testing.T, dir string, shard int, overrides string) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard-%02d", shard), "MANIFEST.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man["overrides"] = json.RawMessage(overrides)
	if b, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendLiveWAL appends recs to shard's newest WAL generation.
func appendLiveWAL(t *testing.T, dir string, shard int, recs ...[]byte) {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%02d", shard), "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("shard %d has no WAL: %v", shard, err)
	}
	sort.Strings(logs)
	path := logs[len(logs)-1]
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := segment.OpenWALForAppend(path, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// walRecord encodes a WAL record of kind op addressing url, then fields.
func walRecord(op byte, url string, fields func(e *segment.Enc)) []byte {
	var e segment.Enc
	e.Byte(op)
	e.Str(url)
	if fields != nil {
		fields(&e)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestOpenOlderTrainingState: a data directory whose manifests carry
// training-flag overrides for frozen rows and whose WALs hold kind-6
// training-flag records, as the previous release wrote them, opens with
// every document present and stored as inserted: a kind-6 record is
// skipped, the records after it still replay, and the overrides are gone
// from the manifest the next freeze commits.
func TestOpenOlderTrainingState(t *testing.T) {
	dir := t.TempDir()
	s, want, cold := olderDir(t, dir)
	deleted := tierURL(6, 41)
	for shard := 0; shard < 2; shard++ {
		var ovs []string
		var recs [][]byte
		for _, d := range want {
			if s.ShardOf(d.ID) != shard {
				continue
			}
			flip := func(e *segment.Enc) { e.Bool(!d.IsTraining) }
			seq := int64(d.ID) >> s.ShardBits()
			if cold[d.ID] {
				ovs = append(ovs, fmt.Sprintf(`"%d":{"training":%v,"hasTraining":true}`, seq, !d.IsTraining))
			}
			recs = append(recs, walRecord(walOpOlderTraining, d.URL, flip))
		}
		if s.ShardForURL(deleted) == shard {
			recs = append(recs, walRecord(walOpDelete, deleted, nil))
		}
		if len(ovs) == 0 || len(recs) < 2 {
			t.Fatalf("shard %d: %d overrides and %d records — weak test", shard, len(ovs), len(recs))
		}
		setManifestOverrides(t, dir, shard, "{"+strings.Join(ovs, ",")+"}")
		appendLiveWAL(t, dir, shard, recs...)
	}
	kept := want[:0]
	for _, d := range want {
		if d.URL != deleted {
			kept = append(kept, d)
		}
	}

	re := openTiered(t, dir, 2, testTierOpts())
	requireDocsEqual(t, "reopened", re.All(), kept)
	freezeAll(t, re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%02d", shard), "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "overrides") {
			t.Fatalf("shard %d: the committed manifest still holds overrides: %s", shard, b)
		}
	}
	re = openTiered(t, dir, 2, testTierOpts())
	defer re.Close()
	requireDocsEqual(t, "reopened after a freeze", re.All(), kept)
}

// TestOpenRejectsManifestTopicOverride: a manifest holding a frozen row's
// later topic, which only releases that could reclassify stored documents
// wrote, fails the open with errOlderManifest naming the manifest — it is
// not silently reverted to the topic the segment baked — and the failed
// open changes no file.
func TestOpenRejectsManifestTopicOverride(t *testing.T) {
	dir := t.TempDir()
	s, _, cold := olderDir(t, dir)
	var seq int64
	for id := range cold {
		if s.ShardOf(id) == 1 {
			seq = int64(id) >> s.ShardBits()
		}
	}
	path := setManifestOverrides(t, dir, 1, fmt.Sprintf(`{"%d":{"topic":"ROOT/os","conf":0.5,"hasTopic":true}}`, seq))
	before := dirFiles(t, dir)
	re, err := OpenTiered(dir, 2, testTierOpts())
	if err == nil {
		re.Close()
		t.Fatal("OpenTiered applied or dropped a manifest topic override")
	}
	if !errors.Is(err, errOlderManifest) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenTiered = %v; want errOlderManifest naming %s", err, path)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the failed open changed the data directory: %d files before, %d after", len(before), len(after))
	}
}
