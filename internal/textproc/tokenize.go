// Package textproc implements the text normalization pipeline used by the
// BINGO! document analyzer: tokenization, stopword elimination, and Porter
// stemming. The output of the pipeline is the stream of word stems from
// which bag-of-words feature vectors are built (paper §2.2).
package textproc

import (
	"strings"
	"sync"
	"unicode"

	"github.com/bingo-search/bingo/internal/memo"
)

// Token is a single word occurrence in a document, before stemming.
type Token struct {
	Text     string // lower-cased surface form
	Position int    // 0-based word offset in the document
}

// Tokenize splits text into lower-cased word tokens. A word is a maximal run
// of letters and digits; runs that contain no letter (pure numbers) are
// dropped, as are single-character tokens, mirroring typical IR lexers.
func Tokenize(text string) []Token {
	return appendTokens(make([]Token, 0, len(text)/6), text)
}

// appendTokens tokenizes text into dst, reusing its capacity; it backs both
// Tokenize and the pooled pipeline path.
func appendTokens(dst []Token, text string) []Token {
	tokens := dst
	pos := 0
	start := -1
	hasLetter := false
	flush := func(end int) {
		if start < 0 {
			return
		}
		if hasLetter && end-start > 1 {
			tokens = append(tokens, Token{Text: strings.ToLower(text[start:end]), Position: pos})
			pos++
		}
		start = -1
		hasLetter = false
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.IsLetter(r) {
				hasLetter = true
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return tokens
}

// Words is a convenience wrapper returning only the token texts.
func Words(text string) []string {
	tokens := Tokenize(text)
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = t.Text
	}
	return out
}

// Pipeline bundles the full analyzer chain: tokenize, drop stopwords, stem.
type Pipeline struct {
	stopwords StopSet
	// ExtraStops holds additional stopwords (e.g. the extended anchor-text
	// list of §3.4: "click", "here", ...).
	extra StopSet
	// memo caches the per-word analyzer decision for this stopword
	// configuration.
	memo *memo.Memo
}

// NewPipeline returns a pipeline with the standard English stopword list.
func NewPipeline() *Pipeline {
	return &Pipeline{stopwords: DefaultStopwords(), memo: standardStems}
}

// NewAnchorPipeline returns a pipeline with the extended stopword list used
// for anchor texts (§3.4), which additionally removes navigation boilerplate
// such as "click here".
func NewAnchorPipeline() *Pipeline {
	return &Pipeline{stopwords: DefaultStopwords(), extra: AnchorStopwords(), memo: anchorStems}
}

// analyzeWord is the uncached per-word decision: "" when the word is
// dropped (stopword, or stem shorter than two characters), the Porter stem
// otherwise.
func (p *Pipeline) analyzeWord(w string) string {
	if p.stopwords.Contains(w) || (p.extra != nil && p.extra.Contains(w)) {
		return ""
	}
	s := Stem(w)
	if len(s) < 2 {
		return ""
	}
	return s
}

// tokenBufs recycles the intermediate token slices of Pipeline.Stems; a
// crawl tokenizes every fetched page, and the per-page buffer is pure
// garbage once the stems are extracted.
var tokenBufs = sync.Pool{
	New: func() any {
		buf := make([]Token, 0, 512)
		return &buf
	},
}

// Stems runs the full pipeline and returns the stem sequence. The per-word
// stopword+stem decision goes through the pipeline's bounded memo, and the
// intermediate token buffer is pooled.
func (p *Pipeline) Stems(text string) []string {
	return p.StemsParts(text)
}

// StemsParts is Stems over the concatenation of parts, without
// materializing the joined string — the crawler analyzes title and body
// together, and the pages are large enough that the extra copy (and its GC
// scan) is measurable.
func (p *Pipeline) StemsParts(parts ...string) []string {
	bufp := tokenBufs.Get().(*[]Token)
	tokens := (*bufp)[:0]
	for _, part := range parts {
		tokens = appendTokens(tokens, part)
	}
	p.memo.Lookups(len(tokens))
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if s := p.memo.Get(t.Text, p.analyzeWord); s != "" {
			out = append(out, s)
		}
	}
	*bufp = tokens[:0]
	tokenBufs.Put(bufp)
	return out
}

// Counts returns the term frequencies of a stem sequence. The map is
// pre-sized to the stem count so it never rehashes while filling; repeated
// terms leave some slack.
func Counts(stems []string) map[string]int {
	counts := make(map[string]int, len(stems))
	for _, s := range stems {
		counts[s]++
	}
	return counts
}

// PipelineVersion names the analyzer's output: NewPipeline's stems of a
// given text. A stored document's term vector is DocTerms of its title and
// text, and the WAL stores only those two, so replay re-derives the vector.
// Any change that alters a stem — tokenizer, stopword list, stemmer — must
// bump it, or a WAL written before the change would replay into different
// term vectors than the ones its documents were indexed and ranked with.
// TestPipelineGolden pins the output this version names.
const PipelineVersion = 1

// standard is the process-wide default pipeline behind DocTerms.
var standard = NewPipeline()

// DocTerms is a stored document's term vector: the term frequencies of
// NewPipeline's stems of title followed by text.
func DocTerms(title, text string) map[string]int {
	return Counts(standard.StemsParts(title, text))
}
