package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Persistence format. A stream starts with a magic and a one-byte format
// version, so a reader can tell a stream's layout apart from its content
// and fail with a clear error instead of letting gob mis-decode an
// incompatible snapshot deep inside the decoder.
//
// Version 2 frames the snapshot per shard: a header frame carrying the
// shard layout, then one length-prefixed gob frame per shard holding that
// shard's documents, link rows and redirects. Because every frame is
// shard-local (a shard's frame carries both its out-link and its in-link
// rows, so no cross-shard routing is needed on read), Decode gob-decodes
// and ingests all P frames in parallel — index rebuild, the dominant
// load-time cost, spreads across cores.
//
// Version 3 keeps version 2's framing and adds the document Tenant field
// (gob carries it transparently; a version-3 stream holding only
// default-tenant documents is byte-identical to version 2 except for the
// version byte). The bump exists so a pre-tenancy reader fails with a
// clear "unsupported version" error instead of silently dropping tenant
// tags. Version 2 is still read and loads as the default tenant; the
// headerless version 0 and the single-gob version 1, which no writer has
// produced since the framed layout shipped, are rejected by version.
var storeMagic = [4]byte{'B', 'N', 'G', 'O'}

// formatVersion is the store stream layout this release writes.
const formatVersion = 3

// headerV2 is the layout frame of versions 2 and 3.
type headerV2 struct {
	ShardCount int
	NextSeqs   []int64
}

// shardFrameV2 is one shard's frame in versions 2 and 3. OutLinks/InLinks
// are the flattened rows of the shard's two link tables; redirects are the
// shard's redirect rows. Version-3 documents carry their Tenant; in a
// version-2 stream the field is absent and gob leaves it "" (the default
// tenant).
type shardFrameV2 struct {
	Docs      []Document
	OutLinks  []Link
	InLinks   []Link
	Redirects []Redirect
}

// maxFrameBytes caps a single shard frame at what the u32 length prefix
// can represent; writeFrame rejects anything larger rather than silently
// truncating the prefix and corrupting the stream.
const maxFrameBytes = math.MaxUint32

func writeFrame(w io.Writer, b []byte) error {
	if int64(len(b)) > maxFrameBytes {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte u32 length prefix limit", len(b), int64(maxFrameBytes))
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(b)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Encode serializes the store to w: magic, format version, a header frame
// with the shard layout, then one gob frame per shard. Shard frames are
// gob-encoded concurrently (one goroutine per shard) and written in shard
// order. Cold documents in a tiered store are hydrated from their
// segments, so the snapshot is complete and self-contained. The inverted
// index and topic index are rebuilt on read rather than serialized.
func (s *Store) Encode(w io.Writer) error {
	return s.encodeFramed(w, formatVersion)
}

// encodeFramed writes the framed per-shard layout with the given version
// byte. The current writer always emits formatVersion; tests use it to
// produce legacy version-2 streams (identical framing, pre-tenancy version
// byte) and check they still load.
func (s *Store) encodeFramed(w io.Writer, version byte) error {
	hdr := headerV2{
		ShardCount: len(s.shards),
		NextSeqs:   make([]int64, len(s.shards)),
	}
	frames := make([][]byte, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		sh.docMu.RLock()
		hdr.NextSeqs[i] = sh.nextSeq
		var frame shardFrameV2
		frame.Docs = make([]Document, 0, len(sh.docs))
		for _, d := range sh.docs {
			if sh.tier != nil {
				frame.Docs = append(frame.Docs, sh.hydrateLocked(d))
			} else {
				frame.Docs = append(frame.Docs, *d)
			}
		}
		sh.docMu.RUnlock()
		sh.linkMu.RLock()
		for _, ls := range sh.outLinks {
			frame.OutLinks = append(frame.OutLinks, ls...)
		}
		for _, ls := range sh.inLinks {
			frame.InLinks = append(frame.InLinks, ls...)
		}
		sh.linkMu.RUnlock()
		sh.redirMu.RLock()
		frame.Redirects = append(frame.Redirects, sh.redirects...)
		sh.redirMu.RUnlock()
		wg.Add(1)
		go func(i int, frame shardFrameV2) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&frame); err != nil {
				errs[i] = err
				return
			}
			frames[i] = buf.Bytes()
		}(i, frame)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("store: encode: %w", err)
		}
	}
	if _, err := w.Write(storeMagic[:]); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	if _, err := w.Write([]byte{version}); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	var hdrBuf bytes.Buffer
	if err := gob.NewEncoder(&hdrBuf).Encode(&hdr); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	if err := writeFrame(w, hdrBuf.Bytes()); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	for _, frame := range frames {
		if err := writeFrame(w, frame); err != nil {
			return fmt.Errorf("store: encode: %w", err)
		}
	}
	return nil
}

// Decode deserializes a store previously written by Encode, decoding the
// shard frames in parallel. A stream without the magic, or with a version
// this release does not read, is a clear error, not a gob panic.
func Decode(r io.Reader) (*Store, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("store: decode: stream header: %w", err)
	}
	if !bytes.Equal(head[:4], storeMagic[:]) {
		return nil, fmt.Errorf("store: decode: not a store stream (no %q magic)", storeMagic[:])
	}
	switch version := head[4]; version {
	case 2, formatVersion:
		// Versions 2 and 3 share their framing; a v2 stream's documents
		// simply decode with Tenant == "" (the default tenant).
		return decodeFramed(r)
	default:
		return nil, fmt.Errorf("store: decode: unsupported format version %d (this release reads versions 2-%d)", version, formatVersion)
	}
}

// decodeFramed reads the framed per-shard layout (versions 2 and 3),
// decoding and ingesting all shard frames concurrently.
func decodeFramed(r io.Reader) (*Store, error) {
	hdrBytes, err := readFrame(r)
	if err != nil {
		return nil, fmt.Errorf("store: decode: header frame: %w", err)
	}
	var hdr headerV2
	if err := gob.NewDecoder(bytes.NewReader(hdrBytes)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	p := hdr.ShardCount
	if p < 1 || p > MaxShards || p&(p-1) != 0 {
		return nil, fmt.Errorf("store: decode: invalid shard count %d", p)
	}
	if len(hdr.NextSeqs) != p {
		return nil, fmt.Errorf("store: decode: %d shard sequences for %d shards", len(hdr.NextSeqs), p)
	}
	frames := make([][]byte, p)
	for i := range frames {
		if frames[i], err = readFrame(r); err != nil {
			return nil, fmt.Errorf("store: decode: shard %d frame: %w", i, err)
		}
	}
	s := NewSharded(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.ingestFrameV2(i, frames[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, sh := range s.shards {
		sh.nextSeq = hdr.NextSeqs[i]
		sh.bumpEpoch()
	}
	return s, nil
}

// ingestFrameV2 decodes one shard frame and rebuilds the shard's rows and
// index slice. Frames are shard-local, so concurrent ingests touch
// disjoint state.
func (s *Store) ingestFrameV2(i int, frame []byte) error {
	var fr shardFrameV2
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&fr); err != nil {
		return fmt.Errorf("store: decode: shard %d: %w", i, err)
	}
	sh := s.shards[i]
	for _, d := range fr.Docs {
		key := docKey(d.Tenant, d.URL)
		if s.shardOf(d.ID) != sh || s.shardForKey(key) != sh {
			return fmt.Errorf("store: decode: document %q (id %d) does not belong to shard %d", d.URL, d.ID, i)
		}
		cp := d
		sh.docs[d.ID] = &cp
		sh.byURL[key] = d.ID
		sh.index.addDoc(d.ID, d.Terms)
		if d.Topic != "" {
			sh.byTopic[d.Topic] = append(sh.byTopic[d.Topic], d.ID)
		}
	}
	for _, l := range fr.OutLinks {
		sh.outLinks[l.From] = append(sh.outLinks[l.From], l)
	}
	for _, l := range fr.InLinks {
		sh.inLinks[l.To] = append(sh.inLinks[l.To], l)
	}
	sh.redirects = append(sh.redirects, fr.Redirects...)
	mDocs.Add(int64(len(fr.Docs)))
	sh.docsGauge.Add(int64(len(fr.Docs)))
	return nil
}

// Save writes the store to path atomically (write to a temp file, then
// rename).
func (s *Store) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := s.Encode(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

// Load reads a store previously written by Save.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	return Decode(bufio.NewReader(f))
}
