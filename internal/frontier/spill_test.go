package frontier

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
)

func spillFrontier(t *testing.T, scheduler string, budget int, mut func(*Config)) *Frontier {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheduler = scheduler
	cfg.SpillBudget = budget
	cfg.SpillDir = t.TempDir()
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

func pushN(f *Frontier, n int) {
	for i := 0; i < n; i++ {
		f.Push(Item{
			URL:      fmt.Sprintf("http://h%02d.example/p%d", i%7, i),
			Topic:    "ROOT/t",
			Priority: float64(i%97) / 97,
		})
	}
}

// TestSpillBoundsMemory: pushing far past the budget must cap the in-memory
// share at the budget while keeping every item reachable, and a spill-free
// frontier must show the unbounded high-water mark the budget prevents.
func TestSpillBoundsMemory(t *testing.T) {
	const n = 2000
	const budget = 128
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := spillFrontier(t, name, budget, nil)
			pushN(f, n)
			st := f.Stats()
			if st.Queued != n {
				t.Fatalf("Queued = %d, want %d", st.Queued, n)
			}
			if st.PeakInMemory > budget {
				t.Fatalf("PeakInMemory = %d exceeds budget %d", st.PeakInMemory, budget)
			}
			if st.Spilled == 0 {
				t.Fatal("nothing spilled despite 16x budget pushed")
			}
			if st.InMemory+st.Spilled != n {
				t.Fatalf("InMemory %d + Spilled %d != %d", st.InMemory, st.Spilled, n)
			}
			// Every pushed item must come back out, exactly once.
			got := map[string]bool{}
			for {
				it, ok := f.Pop()
				if !ok {
					break
				}
				if got[it.URL] {
					t.Fatalf("URL %s popped twice", it.URL)
				}
				got[it.URL] = true
			}
			if len(got) != n {
				t.Fatalf("drained %d items, want %d", len(got), n)
			}
			if err := f.SpillErr(); err != nil {
				t.Fatalf("SpillErr = %v, want nil", err)
			}
		})
	}
	// Contrast: without a budget the whole queue sits in memory.
	cfg := DefaultConfig()
	f := New(cfg)
	pushN(f, n)
	if st := f.Stats(); st.PeakInMemory != n || st.Spilled != 0 {
		t.Fatalf("spill-free run: PeakInMemory=%d Spilled=%d, want %d and 0", st.PeakInMemory, st.Spilled, n)
	}
}

// TestSpillRefillOrderReasonable: items refilled off disk must still come
// out in best-first order within the spilled tier (the run merge is a
// priority merge, not FIFO).
func TestSpillRefillOrderReasonable(t *testing.T) {
	f := spillFrontier(t, SchedulerFIFOPriority, 32, nil)
	const n = 500
	for i := 0; i < n; i++ {
		f.Push(Item{URL: fmt.Sprintf("http://h.example/p%d", i), Topic: "ROOT/t", Priority: float64(i % 101)})
	}
	var prios []float64
	for {
		it, ok := f.Pop()
		if !ok {
			break
		}
		prios = append(prios, it.Priority)
	}
	if len(prios) != n {
		t.Fatalf("drained %d, want %d", len(prios), n)
	}
	// The memory head is served before the disk tail, so global order is
	// relaxed — but inversions must be bounded by the in-memory budget, not
	// the corpus: sorting the drain order must not move any element far.
	// Cheap proxy: the mean of the first half must exceed the mean of the
	// second half (best-first overall trend).
	half := len(prios) / 2
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(prios[:half])/float64(half) <= sum(prios[half:])/float64(len(prios)-half) {
		t.Fatalf("drain order shows no best-first trend: first-half mean %.2f <= second-half mean %.2f",
			sum(prios[:half])/float64(half), sum(prios[half:])/float64(len(prios)-half))
	}
}

// TestSpillDumpRestoreRoundTrip: a frontier with a spilled tail must dump
// every item (memory and disk) and restore to identical counts, priorities
// and dedup behavior.
func TestSpillDumpRestoreRoundTrip(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := spillFrontier(t, name, 64, nil)
			const n = 700
			pushN(f, n)
			if st := f.Stats(); st.Spilled == 0 {
				t.Fatal("precondition: nothing spilled")
			}
			d := f.Dump()
			if len(d.Items) != n {
				t.Fatalf("dump has %d items, want %d (spilled tail missing?)", len(d.Items), n)
			}
			if len(d.Seen) != n {
				t.Fatalf("dump has %d seen URLs, want %d", len(d.Seen), n)
			}
			// Priorities must survive the disk round trip bit-exactly.
			wantPrio := map[string]float64{}
			for _, it := range d.Items {
				wantPrio[it.URL] = it.Priority
			}

			g := spillFrontier(t, name, 64, nil)
			g.Restore(d)
			if g.Len() != n {
				t.Fatalf("restored Len = %d, want %d", g.Len(), n)
			}
			if st := g.Stats(); st.InMemory > 64 {
				t.Fatalf("restore overshot the budget: InMemory = %d", st.InMemory)
			}
			count := 0
			for {
				it, ok := g.Pop()
				if !ok {
					break
				}
				if want, seen := wantPrio[it.URL]; !seen {
					t.Fatalf("restored unknown URL %s", it.URL)
				} else if it.Priority != want {
					t.Fatalf("URL %s restored with priority %v, want %v", it.URL, it.Priority, want)
				}
				delete(wantPrio, it.URL)
				count++
			}
			if count != n {
				t.Fatalf("restored frontier drained %d items, want %d", count, n)
			}
		})
	}
}

// TestSpillTruncationRecoversPrefixLoudly: cutting a run file mid-record —
// the SIGKILL shape — must deliver every record before the tear, never
// panic, and surface a typed *SpillError wrapping segment.ErrTornWAL.
func TestSpillTruncationRecoversPrefixLoudly(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SpillBudget = 32
	cfg.SpillDir = dir
	f := New(cfg)
	const n = 300
	pushN(f, n)
	st := f.Stats()
	if st.Spilled == 0 {
		t.Fatal("precondition: nothing spilled")
	}

	runs, err := filepath.Glob(filepath.Join(dir, "run-*.wal"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no run files found: %v", err)
	}
	sort.Strings(runs)
	victim := runs[0]
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the record stream, past the header, off any frame
	// boundary.
	if err := os.Truncate(victim, info.Size()*2/3+3); err != nil {
		t.Fatal(err)
	}

	drained := 0
	for {
		it, ok := f.Pop()
		if !ok {
			break
		}
		if it.URL == "" {
			t.Fatal("popped empty item")
		}
		drained++
	}
	lost := f.Stats().SpillLost
	if lost == 0 {
		t.Fatal("truncation lost no records? cut had no effect")
	}
	if int64(drained)+lost != n {
		t.Fatalf("drained %d + lost %d != pushed %d: durable prefix not fully recovered", drained, lost, n)
	}
	serr := f.SpillErr()
	if serr == nil {
		t.Fatal("SpillErr = nil after a torn run: the loss was silent")
	}
	var sp *SpillError
	if !errors.As(serr, &sp) {
		t.Fatalf("SpillErr %v is not a *SpillError", serr)
	}
	if !errors.Is(serr, segment.ErrTornWAL) {
		t.Fatalf("SpillErr %v does not wrap segment.ErrTornWAL", serr)
	}
	if sp.Op != "read-run" {
		t.Fatalf("SpillError.Op = %q, want read-run", sp.Op)
	}
}

// TestSpillCorruptFrameIsTypedError: flipping payload bytes inside a run
// must fail the CRC as a *segment.CorruptError carried in the *SpillError —
// distinguishable from truncation — and still never panic.
func TestSpillCorruptFrameIsTypedError(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SpillBudget = 32
	cfg.SpillDir = dir
	f := New(cfg)
	pushN(f, 300)

	runs, _ := filepath.Glob(filepath.Join(dir, "run-*.wal"))
	if len(runs) == 0 {
		t.Fatal("no run files")
	}
	sort.Strings(runs)
	victim := runs[0]
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	for {
		if _, ok := f.Pop(); !ok {
			break
		}
	}
	serr := f.SpillErr()
	if serr == nil {
		t.Fatal("SpillErr = nil after corrupting a run")
	}
	var ce *segment.CorruptError
	if !errors.As(serr, &ce) {
		t.Fatalf("SpillErr %v does not carry a *segment.CorruptError", serr)
	}
}

// TestSpillDecoderFuzz: feed the spill-entry decoder random and mutated
// payloads — it must never panic, and must either error or return a
// plausible entry. This is the defense for a corrupted frame whose CRC
// happens to pass (rewritten file, disk firmware rewrite).
func TestSpillDecoderFuzz(t *testing.T) {
	var e segment.Enc
	encodeSpillEntry(&e, Item{
		URL: "http://h.example/p", Topic: "ROOT/t", Priority: 0.5,
		Depth: 3, TunnelDepth: 1, Referrer: "http://r.example/", Anchor: "x",
		IsSeed: true,
	}, 0.25, 42)
	valid := e.Bytes()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		var payload []byte
		if trial%2 == 0 {
			// Mutate a valid payload.
			payload = append([]byte(nil), valid...)
			for k := 0; k < 1+rng.Intn(4); k++ {
				payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
			}
			if rng.Intn(3) == 0 {
				payload = payload[:rng.Intn(len(payload))]
			}
		} else {
			// Pure noise.
			payload = make([]byte, rng.Intn(64))
			rng.Read(payload)
		}
		it, _, _, err := decodeSpillEntry(payload, "fuzz")
		if err == nil && it.URL == "" {
			t.Fatalf("trial %d: decoder returned ok with empty URL", trial)
		}
	}
	// And the valid payload must round-trip.
	it, eff, seq, err := decodeSpillEntry(valid, "fuzz")
	if err != nil {
		t.Fatalf("valid payload failed: %v", err)
	}
	if it.URL != "http://h.example/p" || it.Depth != 3 || !it.IsSeed || eff != 0.25 || seq != 42 {
		t.Fatalf("round trip mismatch: %+v eff=%v seq=%v", it, eff, seq)
	}
}

// TestSpillWriteFailureDegradesLoudly: a write failure (unwritable spill
// dir) must fall back to unbounded memory — no lost links, sticky error.
func TestSpillWriteFailureDegradesLoudly(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("read-only dir is not enforceable for root")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	cfg := DefaultConfig()
	cfg.SpillBudget = 32
	cfg.SpillDir = dir
	f := New(cfg)
	const n = 200
	pushN(f, n)
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d: write failure lost links", f.Len(), n)
	}
	if f.SpillErr() == nil {
		t.Fatal("SpillErr = nil despite unwritable spill dir")
	}
	drained := 0
	for {
		if _, ok := f.Pop(); !ok {
			break
		}
		drained++
	}
	if drained != n {
		t.Fatalf("drained %d, want %d", drained, n)
	}
}

// TestWALReaderMatchesReplay: the incremental reader must deliver exactly
// the records ReplayWAL does, and resume correctly from a saved offset.
func TestWALReaderMatchesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	w, err := segment.CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		if err := w.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := segment.OpenWALReaderAt(path, segment.WALDataStart)
	if err != nil {
		t.Fatal(err)
	}
	var mid int64
	for i := 0; ; i++ {
		payload, err := rd.Next()
		if err != nil {
			if i != len(want) {
				t.Fatalf("reader stopped at %d: %v", i, err)
			}
			break
		}
		if string(payload) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, payload, want[i])
		}
		if i == 9 {
			mid = rd.Offset()
		}
	}
	rd.Close()

	// Resume from the saved offset: records 10..19.
	rd2, err := segment.OpenWALReaderAt(path, mid)
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	for i := 10; i < len(want); i++ {
		payload, err := rd2.Next()
		if err != nil {
			t.Fatalf("resumed read %d: %v", i, err)
		}
		if string(payload) != string(want[i]) {
			t.Fatalf("resumed record %d = %q, want %q", i, payload, want[i])
		}
	}
}
