package segment

// On-disk segment layout (all integers little-endian, lengths varint):
//
//	header   "BSG1" | version u8 | shard u32
//	dict     framed dictionaries, one per block section (see below)
//	meta     block section: slim document rows (everything but Terms/Text)
//	termvec  block section: per-document sorted (term, tf) vectors
//	text     block section: document bodies
//	postings per-term entries sorted by term (delta+varint doc lists)
//	sparse   every sparseEvery-th term with its postings offset
//	links    block section: out-link rows then in-link rows
//	redirs   block section: redirect rows
//	footer   section table + counts + CRC, then u32 footerLen + "BSG1"
//
// The three document sections (meta, termvec, text) block their rows
// identically — document position p lives in block p/blockDocs at index
// p%blockDocs in each — so one position is a locator for all three and the
// file stores no per-document offsets (the reader indexes row starts only
// inside a block it has just inflated). Positions are assigned in ascending
// sequence order.
//
// A block section is a run of compressed blocks, each framed as
// [u32 compLen][u32 rawLen][u32 crc32(comp)], followed by a block offset
// table ([u32 count][count × u64 offset relative to section start]
// [u32 crc32(table)]). Blocks are DEFLATE streams, compressed in parallel
// across blocks by pooled encoders. The dict section frames one preset
// dictionary per section; Build writes every one of them empty, and readers
// still inflate with a non-empty one, so segments written when each section
// carried a dictionary sampled from its first block read unchanged.
//
// A postings entry is [term][varint df][varint byteLen][u32 crc32(bytes)]
// [bytes], where bytes is (first seq uvarint, then seq deltas uvarint)
// interleaved with zigzag-varint term frequencies. The sparse index keeps
// every sparseEvery-th term's (term, entry offset); a lookup binary-searches
// the sparse index and scans at most sparseEvery entries.

const (
	magic   = "BSG1"
	version = 1

	// blockDocs is the document blocking factor shared by the meta,
	// termvec, and text sections.
	blockDocs = 64

	// linkBlockRows bounds rows per link/redirect block.
	linkBlockRows = 1024

	// sparseEvery is the postings sparse-index stride.
	sparseEvery = 32
)

// Section indices into the footer's section table.
const (
	secDict = iota
	secMeta
	secTermVec
	secText
	secPostings
	secSparse
	secLinks
	secRedirects
	numSections
)

var sectionName = [numSections]string{
	"dict", "meta", "termvec", "text", "postings", "sparse-index", "links", "redirects",
}

// section is one footer table row.
type section struct {
	off uint64
	len uint64
	aux uint32 // block count (block sections) or entry count (postings/sparse)
}

// footer is the fixed trailer parsed at open.
type footer struct {
	sections [numSections]section
	docCount uint32
	minSeq   int64
	maxSeq   int64
	outLinks uint32 // out-link row count (first rows of the links section)
	inLinks  uint32
	redirs   uint32
	shard    uint32
}

// Meta is the slim document row a segment stores outside the compressed
// text tier: every store.Document field except Terms and Text.
type Meta struct {
	URL            string
	FinalURL       string
	Title          string
	ContentType    string
	Topic          string
	Confidence     float64
	Depth          int
	CrawledAtNanos int64
	IsTraining     bool
}

// TermCount is one entry of a document's term vector, sorted by Term.
type TermCount struct {
	Term string
	TF   int
}

// DocRecord is one document fed to the builder: its shard-local sequence
// number, slim metadata, sorted term vector, and body text.
type DocRecord struct {
	Seq   int64
	Meta  Meta
	Terms []TermCount // must be sorted by Term
	Text  string
}

// LinkRow mirrors store.Link without importing it (segment is below store
// in the dependency order).
type LinkRow struct {
	From, To, Anchor string
}

// RedirectRow mirrors store.Redirect.
type RedirectRow struct {
	From, To string
}

func encodeMeta(e *enc, seq int64, m *Meta) {
	e.varint(seq)
	e.str(m.URL)
	e.str(m.FinalURL)
	e.str(m.Title)
	e.str(m.ContentType)
	e.str(m.Topic)
	e.f64(m.Confidence)
	e.varint(int64(m.Depth))
	e.varint(m.CrawledAtNanos)
	e.bool(m.IsTraining)
}

func decodeMeta(d *dec) (seq int64, m Meta) {
	seq = d.varint()
	m.URL = d.str()
	m.FinalURL = d.str()
	m.Title = d.str()
	m.ContentType = d.str()
	m.Topic = d.str()
	m.Confidence = d.f64()
	m.Depth = int(d.varint())
	m.CrawledAtNanos = d.varint()
	m.IsTraining = d.bool()
	return seq, m
}

func encodeTermVec(e *enc, vec []TermCount) {
	e.uvarint(uint64(len(vec)))
	for i := range vec {
		e.str(vec[i].Term)
		e.varint(int64(vec[i].TF))
	}
}

func decodeTermVec(d *dec, buf []TermCount) []TermCount {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) { // each entry is ≥1 byte
		d.fail("term vector of %d entries overruns buffer", n)
		return nil
	}
	buf = buf[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		t := d.str()
		tf := d.varint()
		buf = append(buf, TermCount{Term: t, TF: int(tf)})
	}
	return buf
}

// skipTermVec steps over one encoded term vector without allocating.
func (d *dec) skipTermVec() {
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		d.strBytes()
		d.varint()
	}
}
