package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/segment"
	"github.com/bingo-search/bingo/internal/store"
)

// Session persistence: the paper's usage model is "a few minutes for setting
// up an overnight crawl, and another few minutes for looking at the results
// the next morning" (§1.2). A crawl session is its data directory: the
// tiered store (segments + WAL + manifests) already holds the document
// database, and SaveSession adds one small SESSION file beside it with the
// engine state the store does not: the current training set (seeds +
// promoted archetypes + feedback), the lifecycle counters, and the crawl
// frontier — queued links and the dedup set — so a resumed harvest picks up
// mid-queue instead of only re-seeding from hubs. LoadSession reopens the
// directory, re-trains the classifier from the restored training set,
// restores the frontier, and primes the duplicate detector with every stored
// URL so a resumed harvest does not refetch.
//
// SESSION starts with a magic and a one-byte format version. Versions 1
// and 2 (and headerless files) embedded a copy of the whole store and are
// rejected by version.
var sessionMagic = [4]byte{'B', 'N', 'G', 'S'}

// sessionVersion is the SESSION layout this release writes and reads.
const sessionVersion = 3

// sessionFile is the state file's name inside the data directory.
const sessionFile = "SESSION"

// savedDoc is the serialized form of a training document.
type savedDoc struct {
	ID      string
	Stems   []string
	Anchors []string
}

// sessionState is the serialized engine state.
type sessionState struct {
	Training   map[string][]savedDoc
	Others     []savedDoc
	SeedTopics map[string]string
	Retrains   int
	Phase      Phase
	Frontier   frontier.Dump
}

// SaveSession makes the default tenant's crawl session resumable from
// cfg.DataDir. It freezes every shard, so each row the engine holds is in
// a segment whatever WALSync says, then atomically writes DataDir/SESSION.
// Sessions are a single-portal artifact: the shared store is durable
// whole, but training, seeds, phase and frontier are the default tenant's.
func (e *Engine) SaveSession() error {
	if e.cfg.DataDir == "" {
		return errors.New("core: save session: no DataDir (a session lives in the crawl's data directory)")
	}
	for i := 0; i < e.store.NumShards(); i++ {
		if err := e.store.FreezeShard(i); err != nil {
			return fmt.Errorf("core: save session: %w", err)
		}
	}
	def := e.def
	def.mu.RLock()
	st := sessionState{
		Training:   make(map[string][]savedDoc, len(def.training.ByTopic)),
		SeedTopics: make(map[string]string, len(def.seedTopics)),
		Retrains:   def.retrains,
		Phase:      def.phase,
	}
	for topic, docs := range def.training.ByTopic {
		for _, d := range docs {
			st.Training[topic] = append(st.Training[topic], saveDoc(d))
		}
	}
	for _, d := range def.training.Others {
		st.Others = append(st.Others, saveDoc(d))
	}
	for u, t := range def.seedTopics {
		st.SeedTopics[u] = t
	}
	def.mu.RUnlock()
	st.Frontier = def.frontier.Dump()

	var buf bytes.Buffer
	err := writeSessionState(&buf, st)
	if err == nil {
		err = segment.WriteFileAtomic(filepath.Join(e.cfg.DataDir, sessionFile), buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("core: save session: %w", err)
	}
	return nil
}

// writeSessionState writes a SESSION stream: magic, version byte, then the
// gob-encoded state.
func writeSessionState(w io.Writer, st sessionState) error {
	if _, err := w.Write(append(sessionMagic[:], sessionVersion)); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&st)
}

// readSessionState reads what writeSessionState wrote. Anything else is an
// error, never a panic.
func readSessionState(r io.Reader) (sessionState, error) {
	var st sessionState
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return st, fmt.Errorf("session header: %w", err)
	}
	if !bytes.Equal(head[:4], sessionMagic[:]) {
		return st, fmt.Errorf("unsupported format version (no %q header)", sessionMagic[:])
	}
	if v := head[4]; v != sessionVersion {
		return st, fmt.Errorf("unsupported format version %d (this release reads version %d)", v, sessionVersion)
	}
	err := gob.NewDecoder(r).Decode(&st)
	return st, err
}

func saveDoc(d classify.Doc) savedDoc {
	return savedDoc{ID: d.ID, Stems: d.Input.Stems, Anchors: d.Input.Anchors}
}

func loadDoc(d savedDoc) classify.Doc {
	return classify.Doc{ID: d.ID, Input: features.DocInput{Stems: d.Stems, Anchors: d.Anchors}}
}

// LoadSession reopens the session saved in cfg.DataDir: New(cfg) opens the
// tiered store, then training, frontier and dedup are restored and the
// classifier is retrained. cfg must describe the same topic tree;
// transports, budgets and tuning may differ (e.g. a larger harvest budget
// for the resumed crawl).
func LoadSession(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("core: load session: no DataDir")
	}
	b, err := os.ReadFile(filepath.Join(cfg.DataDir, sessionFile))
	if err != nil {
		return nil, fmt.Errorf("core: load session: %w", err)
	}
	st, err := readSessionState(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("core: load session: %w", err)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreSession(st); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// restoreSession installs a saved state into a freshly opened engine.
func (e *Engine) restoreSession(st sessionState) error {
	def := e.def
	def.mu.Lock()
	for topic, docs := range st.Training {
		if _, ok := def.tree.Lookup(topic); !ok {
			def.mu.Unlock()
			return fmt.Errorf("core: load session: topic %s not in configured tree", topic)
		}
		for _, d := range docs {
			def.training.Add(topic, loadDoc(d))
		}
	}
	for _, d := range st.Others {
		def.training.Others = append(def.training.Others, loadDoc(d))
	}
	def.seedTopics = st.SeedTopics
	def.phase = st.Phase
	def.mu.Unlock()

	def.frontier.Restore(st.Frontier)

	// Prime the duplicate detector so resumed crawling skips stored pages.
	// Only the default tenant's rows count: another portal having fetched a
	// URL must not stop a resumed default-tenant crawl from fetching it.
	e.store.VisitDocs(func(d store.Document) bool {
		if d.Tenant != "" {
			return true
		}
		def.fetcher.Dedup.SeenURL(d.URL)
		if d.FinalURL != "" && d.FinalURL != d.URL {
			def.fetcher.Dedup.SeenURL(d.FinalURL)
		}
		return true
	})
	if err := def.retrain(); err != nil {
		return err
	}
	// retrain bumped the counter by one; fold in the history.
	def.mu.Lock()
	def.retrains += st.Retrains
	def.mu.Unlock()
	return nil
}
