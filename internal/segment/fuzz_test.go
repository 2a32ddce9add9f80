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
	// A segment with non-empty preset dictionaries, from before Build wrote
	// them empty.
	b, err := os.ReadFile(presetDictFixture)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, b)
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
