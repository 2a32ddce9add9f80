package segment

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The fuzz targets double as seed-corpus checks: plain `go test` runs every
// seed through the full decode surface and asserts the only acceptable
// failure mode is a typed corruption error. `go test -fuzz` extends the
// corpus from there.

func fuzzSeedSegments(f *testing.F) {
	f.Helper()
	var seeds [][]byte
	for _, in := range []BuildInput{
		{Shard: 0},
		genInput(1, 3),
		genInput(2, 70),
	} {
		path := filepath.Join(f.TempDir(), "seed.bsg")
		if _, err := Build(path, in); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		f.Add(b)
		// A couple of mangled variants so the corpus exercises error
		// paths from the start.
		if len(b) > 40 {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0xff
			f.Add(mut)
			f.Add(b[:len(b)/3])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BSG1"))
	// Files whose blocks hold uneven row counts, as merges write them, and
	// the same with counts Open must reject.
	f.Add(unevenSegment(f))
	for _, b := range badRowCounts(f) {
		f.Add(b)
	}
	// Other format versions (version 2 among them), which Open rejects,
	// and a block claiming more bytes than it can inflate to.
	for _, b := range otherFormats(f) {
		f.Add(b)
	}
	f.Add(hugeRawLen(f))
}

func FuzzSegmentOpen(f *testing.F) {
	fuzzSeedSegments(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bsg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error not typed: %v", err)
			}
			return
		}
		defer r.Close()
		if err := readAll(r); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read error not typed: %v", err)
		}
	})
}

// FuzzSegmentMerge merges a fuzzed segment with a valid one. The merge
// fails with a typed error, or its output reads back exactly as Build over
// the same live rows whenever the fuzzed input itself reads back whole.
func FuzzSegmentMerge(f *testing.F) {
	fuzzSeedSegments(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bsg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error not typed: %v", err)
			}
			return
		}
		defer r.Close()
		in := genInput(61, 90)
		in.Shard = r.Shard()
		inputs := []*Reader{r, nil}
		if base := r.MaxSeq(); base >= 0 && base < 1<<60 {
			for i := range in.Docs {
				in.Docs[i].Seq += base
			}
		} else {
			inputs[0], inputs[1] = nil, r
		}
		valid := openBytes(t, buildBytes(t, in))
		if inputs[0] == nil {
			inputs[0] = valid
		} else {
			inputs[1] = valid
		}
		c, rerr := readContent(r)
		live := liveSet{}
		for _, d := range append(c.Docs, in.Docs...) {
			if d.Seq%5 != 0 {
				live[d.Seq] = true
			}
		}
		out := filepath.Join(t.TempDir(), "merged.bsg")
		if _, err := Merge(out, inputs, live.fn); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errMergeInputs) {
				t.Fatalf("Merge error not typed: %v", err)
			}
			return
		}
		m, err := Open(out)
		if err != nil {
			if rerr == nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("merged file does not open: %v", err)
			}
			return
		}
		defer m.Close()
		if rerr != nil {
			if err := readAll(m); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("merged read error not typed: %v", err)
			}
			return
		}
		g, err := readContent(m)
		if err != nil {
			t.Fatalf("merged segment of readable inputs does not read back: %v", err)
		}
		w, err := readContent(reference(t, inputs, live))
		if err != nil {
			t.Fatal(err)
		}
		if diff := contentDiff(g, w); diff != "" {
			t.Fatalf("merged segment differs from Build over the live rows: %s", diff)
		}
	})
}

func FuzzWALReplay(f *testing.F) {
	// Seed: a real WAL, its truncations, and a mangled copy.
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, err := CreateWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.Append([]byte{byte(i), 1, 2, 3, byte(i)}, false); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)-3])
	mut := append([]byte(nil), b...)
	mut[len(mut)-2] ^= 0x10
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte("BWAL"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		n, good, err := ReplayWAL(p, func([]byte) error { return nil })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay error not typed: %v", err)
			}
			return
		}
		if good > int64(len(data)) {
			t.Fatalf("goodSize %d beyond %d-byte input", good, len(data))
		}
		// Replaying the good prefix must be stable: same record count, no
		// error.
		if good > 0 {
			p2 := filepath.Join(t.TempDir(), "prefix.wal")
			if err := os.WriteFile(p2, data[:good], 0o644); err != nil {
				t.Skip()
			}
			n2, good2, err2 := ReplayWAL(p2, func([]byte) error { return nil })
			if err2 != nil || n2 != n || good2 != good {
				t.Fatalf("prefix replay unstable: n=%d/%d good=%d/%d err=%v", n2, n, good2, good, err2)
			}
		}
	})
}
