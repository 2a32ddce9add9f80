package textproc

import (
	"reflect"
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
