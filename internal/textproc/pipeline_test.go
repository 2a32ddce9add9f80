package textproc

import (
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"testing"
)

// The golden text mixes what each pipeline stage decides: case folding,
// stopwords, digits-only and one-letter tokens, non-ASCII letters, and
// Porter's suffix rules.
const (
	goldenTitle = "ARIES: A Transaction Recovery Method"
	goldenText  = "Write-ahead logging supports fine-granularity locking and partial rollbacks " +
		"using Log Sequence Numbers (LSNs) in 1992; the recovery manager's redo pass " +
		"repeats history, then undoes losers. Über-fast déjà vu: x y z 42 4u hopping " +
		"relational conditional generalizations."
)

// goldenStems is NewPipeline's output for the golden text at
// PipelineVersion 1. A change that fails this test changes the stems of
// stored documents: bump PipelineVersion, then update the golden.
var goldenStems = []string{
	"ari", "transact", "recoveri", "method", "write", "ahead", "log",
	"support", "fine", "granular", "lock", "partial", "rollback", "us",
	"log", "sequenc", "number", "lsn", "recoveri", "manag", "redo", "pass",
	"repeat", "histori", "undo", "loser", "über", "fast", "déjà", "vu", "4u",
	"hop", "relat", "condit", "gener",
}

func TestPipelineGolden(t *testing.T) {
	if PipelineVersion != 1 {
		t.Fatalf("PipelineVersion is %d: regenerate goldenStems for it", PipelineVersion)
	}
	got := NewPipeline().StemsParts(goldenTitle, goldenText)
	if !reflect.DeepEqual(got, goldenStems) {
		t.Fatalf("stems of the golden text changed at PipelineVersion %d:\n got %q\nwant %q", PipelineVersion, got, goldenStems)
	}
	terms := DocTerms(goldenTitle, goldenText)
	if !reflect.DeepEqual(terms, Counts(goldenStems)) {
		t.Fatalf("DocTerms = %v, want the counts of the golden stems", terms)
	}
}

// TestPipelineHeapBound: the analyzer's memo reserves nothing. A fresh
// NewPipeline plus one DocTerms call over the golden text leaves under
// 1 MB live; memo shards made at their 2048-entry bound would leave
// ≈ 140 KiB for each of the shards the golden words land in. It measures
// in a child process, where no other test has touched the process-wide
// memo yet.
func TestPipelineHeapBound(t *testing.T) {
	if os.Getenv("TEXTPROC_HEAP_PROBE") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPipelineHeapBound$", "-test.count=1")
		cmd.Env = append(os.Environ(), "TEXTPROC_HEAP_PROBE=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("heap probe: %v\n%s", err, out)
		}
		return
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPipeline()
	terms := DocTerms(goldenTitle, goldenText)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(terms)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live >= 1<<20 {
		t.Fatalf("NewPipeline plus one DocTerms call leave %d bytes live, want < 1 MB", live)
	}
}
