package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/frontier"
)

// sessionConfig is the config a saved session is reopened with: the same
// world over dir (a fresh transport is fine — the world is deterministic).
func sessionConfig(w *corpus.World, dir, topic string) Config {
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	return Config{
		Topics:     []TopicSpec{{Path: []string{topic}, Seeds: w.SeedURLs()}},
		OthersURLs: w.GeneralPageURLs(12),
		Transport:  w.RoundTripper(),
		DNSServers: []DNSServerSpec{{Table: table}},
		DataDir:    dir,
	}
}

// savedSession bootstraps an engine over a fresh data directory, saves its
// session and closes it, returning the world and the directory.
func savedSession(t *testing.T) (*corpus.World, string) {
	t.Helper()
	dir := t.TempDir()
	e, w := newTestEngine(t, func(c *Config) { c.DataDir = dir })
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSession(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return w, dir
}

func TestSaveLoadSessionAndResume(t *testing.T) {
	dir := t.TempDir()
	e, world := newTestEngine(t, func(c *Config) {
		c.LearnBudget = 80
		c.HarvestBudget = 80
		c.DataDir = dir
	})
	ctx := context.Background()
	if _, _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	docsBefore := e.Store().NumDocs()
	trainBefore := e.TrainingSize()
	retrainsBefore := e.Retrains()
	if err := e.SaveSession(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := LoadSession(sessionConfig(world, dir, "databases"))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Store().NumDocs() != docsBefore {
		t.Errorf("store docs = %d, want %d", e2.Store().NumDocs(), docsBefore)
	}
	if e2.TrainingSize() != trainBefore {
		t.Errorf("training size = %d, want %d", e2.TrainingSize(), trainBefore)
	}
	if e2.Retrains() != retrainsBefore+1 { // history + the reload retrain
		t.Errorf("retrains = %d, want %d", e2.Retrains(), retrainsBefore+1)
	}
	if e2.Classifier() == nil {
		t.Fatal("no classifier after load")
	}

	// Resume: extra harvest budget grows the store without refetching.
	stats, err := e2.HarvestN(ctx, 200)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Store().NumDocs() <= docsBefore {
		t.Errorf("resume added no documents: %d -> %d (stats %+v)",
			docsBefore, e2.Store().NumDocs(), stats)
	}
	if !e2.Store().Contains(world.SeedURLs()[0]) {
		t.Error("seed lost on reload")
	}
}

func TestLoadSessionErrors(t *testing.T) {
	w, dir := savedSession(t)

	// no data directory, and a data directory without a session
	if _, err := LoadSession(sessionConfig(w, "", "databases")); err == nil {
		t.Error("session loaded without a DataDir")
	}
	empty := t.TempDir()
	if _, err := LoadSession(sessionConfig(w, empty, "databases")); err == nil {
		t.Error("missing session loaded")
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Errorf("failed load left %d entries in an empty directory", len(entries))
	}
	// mismatched topic tree
	if _, err := LoadSession(sessionConfig(w, dir, "somethingelse")); err == nil {
		t.Error("mismatched tree accepted")
	}
	// corrupt file
	if err := os.WriteFile(filepath.Join(dir, sessionFile), []byte("not a session"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(sessionConfig(w, dir, "databases")); err == nil {
		t.Error("corrupt file loaded")
	}
}

// TestSaveSessionUnwritablePath: a SESSION that cannot be written is an
// error, and the previous file is left in place.
func TestSaveSessionUnwritablePath(t *testing.T) {
	dir := t.TempDir()
	e, _ := newTestEngine(t, func(c *Config) { c.DataDir = dir })
	defer e.Close()
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A directory where the temp file goes makes the write fail.
	if err := os.Mkdir(filepath.Join(dir, sessionFile+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSession(); err == nil {
		t.Error("unwritable session accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, sessionFile)); !os.IsNotExist(err) {
		t.Errorf("failed save left a SESSION file: %v", err)
	}
}

// TestSaveSessionNeedsDataDir: without a data directory there is nowhere
// for a session to live, so SaveSession refuses and writes nothing.
func TestSaveSessionNeedsDataDir(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := t.TempDir()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	if err := e.SaveSession(); err == nil {
		t.Fatal("SaveSession without DataDir succeeded")
	}
	if entries, _ := os.ReadDir(cwd); len(entries) != 0 {
		t.Errorf("SaveSession without DataDir wrote %d files", len(entries))
	}
}

func TestLoadSessionVersionMismatch(t *testing.T) {
	w, dir := savedSession(t)
	cfg := sessionConfig(w, dir, "databases")
	// valid load works; then a truncated file must fail cleanly
	e, err := LoadSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	path := filepath.Join(dir, sessionFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(cfg); err == nil {
		t.Error("truncated session loaded")
	}
}

func TestClusterTopicEmptyClass(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	res, k, docs := clusterTopic(e, "ROOT/nonexistent", 2, 4)
	if len(docs) != 0 || k != 0 && len(res.Assign) != 0 {
		t.Errorf("empty class clustering: k=%d docs=%d", k, len(docs))
	}
}

// TestSessionPersistsFrontier checks that queued frontier work survives a
// save/load cycle: a resumed crawl starts from the saved queue, not empty.
func TestSessionPersistsFrontier(t *testing.T) {
	dir := t.TempDir()
	e, w := newTestEngine(t, func(c *Config) { c.DataDir = dir })
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.def.frontier.Push(frontier.Item{URL: "http://pending.example/a", Topic: "ROOT/databases", Priority: 1e9})
	e.def.frontier.Push(frontier.Item{URL: "http://pending.example/b", Topic: "ROOT/databases", Priority: 0.4})
	e.def.frontier.Requeue(frontier.Item{URL: "http://requeued.example/", Topic: "ROOT/databases", Priority: 0.7})
	queuedBefore := e.def.frontier.Stats()
	if err := e.SaveSession(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := LoadSession(sessionConfig(w, dir, "databases"))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	after := e2.def.frontier.Stats()
	if after.Queued != queuedBefore.Queued {
		t.Errorf("restored queued = %d, want %d", after.Queued, queuedBefore.Queued)
	}
	// Dedup restored with the queue: a duplicate push is dropped.
	if e2.def.frontier.Push(frontier.Item{URL: "http://pending.example/a", Topic: "ROOT/databases", Priority: 1e9}) {
		t.Error("re-push of saved frontier URL succeeded after restore")
	}
	// The best pending link pops first.
	it, ok := e2.def.frontier.Pop()
	if !ok {
		t.Fatal("restored frontier empty")
	}
	if it.URL != "http://pending.example/a" {
		t.Errorf("first pop = %q, want the highest-priority saved link", it.URL)
	}
}

// TestSessionWithDelayedRequeuesLoads: a SESSION written before requeues
// went straight back into the queue carries a frontier dump with a
// Delayed list and a Requeues count per item. Such a file still loads,
// with its queued items and dedup set intact, and its Delayed items are
// queued too: their URLs are seen, so nothing else would fetch them.
func TestSessionWithDelayedRequeuesLoads(t *testing.T) {
	type oldItem struct {
		URL      string
		Topic    string
		Priority float64
		Requeues int
	}
	type oldDelayed struct {
		Item    oldItem
		ReadyIn time.Duration
	}
	type oldDump struct {
		Items   []oldItem
		Delayed []oldDelayed
		Seen    []string
	}
	type oldState struct {
		Retrains int
		Phase    Phase
		Frontier oldDump
	}
	var buf bytes.Buffer
	buf.Write(append(sessionMagic[:], sessionVersion))
	if err := gob.NewEncoder(&buf).Encode(&oldState{
		Retrains: 4,
		Phase:    PhaseHarvesting,
		Frontier: oldDump{
			Items:   []oldItem{{URL: "http://pending.example/", Topic: "ROOT/databases", Priority: 0.5, Requeues: 1}},
			Delayed: []oldDelayed{{Item: oldItem{URL: "http://cooling.example/"}, ReadyIn: time.Minute}},
			Seen:    []string{"http://cooling.example/", "http://pending.example/"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := readSessionState(&buf)
	if err != nil {
		t.Fatalf("older SESSION rejected: %v", err)
	}
	if st.Retrains != 4 || st.Phase != PhaseHarvesting {
		t.Errorf("counters = %d retrains, phase %v", st.Retrains, st.Phase)
	}
	d := st.Frontier
	if len(d.Items) != 1 || d.Items[0].URL != "http://pending.example/" || d.Items[0].Priority != 0.5 {
		t.Errorf("queued items = %+v", d.Items)
	}
	if len(d.Seen) != 2 {
		t.Errorf("seen = %v, want both URLs", d.Seen)
	}
	f := frontier.New(frontier.Config{})
	f.Restore(d)
	var queued []string
	for _, it := range f.Dump().Items {
		queued = append(queued, it.URL)
	}
	sort.Strings(queued)
	if want := []string{"http://cooling.example/", "http://pending.example/"}; !reflect.DeepEqual(queued, want) {
		t.Errorf("restored queue = %v, want %v", queued, want)
	}
}

// TestSaveSessionSurvivesCrash: with WALSync off, SaveSession still makes
// every row durable (it freezes every shard), so an engine abandoned
// without Close reopens with the same documents — read from segments, not
// from an unsynced WAL — training set and queued frontier.
func TestSaveSessionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	e, w := newTestEngine(t, func(c *Config) {
		c.DataDir = dir
		c.WALSync = false
	})
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.def.frontier.Push(frontier.Item{URL: "http://pending.example/a", Topic: "ROOT/databases", Priority: 0.9})
	docs, training, queued := e.Store().NumDocs(), e.TrainingSize(), e.def.frontier.Stats().Queued
	if docs == 0 || queued == 0 {
		t.Fatalf("nothing to save: %d docs, %d queued", docs, queued)
	}
	if err := e.SaveSession(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process dies here.

	e2, err := LoadSession(sessionConfig(w, dir, "databases"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Store().NumDocs(); got != docs {
		t.Errorf("docs after crash = %d, want %d", got, docs)
	}
	if rec := e2.Store().Recovery(); rec.SegmentDocs != docs || rec.WALDocs != 0 {
		t.Errorf("recovered %d docs from segments and %d from the WAL, want %d and 0", rec.SegmentDocs, rec.WALDocs, docs)
	}
	if got := e2.TrainingSize(); got != training {
		t.Errorf("training size after crash = %d, want %d", got, training)
	}
	if got := e2.def.frontier.Stats().Queued; got != queued {
		t.Errorf("queued after crash = %d, want %d", got, queued)
	}
	e2.Close()
	e.Close()
}

// TestSessionUnknownFormatVersion checks the header gives a clear error for
// a future format and for the retired versions 1 and 2 that embedded a
// store.
func TestSessionUnknownFormatVersion(t *testing.T) {
	w, dir := savedSession(t)
	path := filepath.Join(dir, sessionFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{99, 1, 2} {
		data[4] = version
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadSession(sessionConfig(w, dir, "databases"))
		if want := fmt.Sprintf("unsupported format version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: err = %v, want %q", version, err, want)
		}
	}
}

// TestSessionLegacyHeaderless checks that a headerless session — the
// earliest layout, a bare gob state followed by a store copy — is rejected
// as an unsupported format rather than mis-decoded.
func TestSessionLegacyHeaderless(t *testing.T) {
	w, dir := savedSession(t)
	path := filepath.Join(dir, sessionFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[5:], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSession(sessionConfig(w, dir, "databases"))
	if err == nil || !strings.Contains(err.Error(), "unsupported format version") {
		t.Errorf("headerless session: err = %v, want an unsupported format version", err)
	}
}

// FuzzSessionState: the SESSION reader's contract is an error, never a
// panic, whatever the bytes.
func FuzzSessionState(f *testing.F) {
	var valid bytes.Buffer
	if err := writeSessionState(&valid, sessionState{
		Training:   map[string][]savedDoc{"ROOT/databases": {{ID: "u", Stems: []string{"databas"}, Anchors: []string{"db"}}}},
		Others:     []savedDoc{{ID: "o", Stems: []string{"sport"}}},
		SeedTopics: map[string]string{"u": "ROOT/databases"},
		Retrains:   2,
		Phase:      PhaseHarvesting,
		Frontier: frontier.Dump{
			Items: []frontier.Item{{URL: "http://pending.example/", Topic: "ROOT/databases", Priority: 0.5}},
			Seen:  []string{"http://pending.example/"},
		},
	}); err != nil {
		f.Fatal(err)
	}
	b := valid.Bytes()
	f.Add(b)
	f.Add(b[:len(b)/2])
	future := append([]byte(nil), b...)
	future[4] = 99
	f.Add(future)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readSessionState(bytes.NewReader(data))
	})
}
