package segment

// On-disk segment layout (all integers little-endian, lengths varint):
//
//	header   "BSG1" | version u8 | shard u32
//	meta     block section: slim document rows (everything but Terms/Text)
//	termvec  block section: per-document sorted (term, tf) vectors
//	text     block section: document bodies
//	links    block section: out-link rows
//	redirs   block section: redirect rows
//	footer   section table + counts + CRC, then u32 footerLen + "BSG1"
//
// version is the only one a reader accepts; Open rejects any other as an
// unsupported format version.
//
// The three document sections (meta, termvec, text) block their rows
// identically — block i holds the same run of document positions in each,
// and Open rejects a file whose three tables disagree — so one position is
// a locator for all three and the file stores no per-document offsets (the
// reader indexes row starts only inside a block it has just inflated).
// Positions are assigned in ascending sequence order.
//
// A block section is a run of compressed blocks, each framed as
// [u32 compLen][u32 rawLen][u32 crc32(comp)], followed by a block table
// ([u32 count][count × (u64 offset relative to section start, u32 rows)]
// [u32 crc32(table)]). A reader finds a row's block by binary search over
// the rows' prefix sums. Build cuts blocks at blockDocs documents and
// linkBlockRows link or redirect rows; Merge copies an input's blocks
// whole, so its output may hold shorter ones (see copyFloorDocs).
// Blocks are DEFLATE streams without a preset dictionary, compressed in
// parallel across blocks by pooled encoders: the document sections at
// level 4, the link and redirect sections at 6 (build.go).
//
// The file stores no inverted index: a term's postings are derived from
// the term vectors, in memory, by the first postings read (see
// Reader.VisitPostings).

const (
	magic   = "BSG1"
	version = 3

	// blockDocs is the document blocking factor shared by the meta,
	// termvec, and text sections.
	blockDocs = 64

	// linkBlockRows bounds rows per link/redirect block.
	linkBlockRows = 1024

	// copyFloorDocs and copyFloorLinks are the smallest document and
	// link/redirect blocks a merge copies; a smaller clean block is
	// re-encoded with its neighbours instead, since DEFLATE over fewer rows
	// compresses worse. On a 3,000-doc store's own rows, at the levels
	// build.go encodes them, 48-doc blocks cost +3.1 % on the document
	// sections (≈86 % of segment bytes) and 256-row link blocks +7.4 % on
	// links (≈14 %), so even a file of floor-size blocks is within ≈ +3.7 %
	// of one of full blocks; 44 docs (+4.1 %) or 192 rows (+10.0 %) would
	// cost more.
	copyFloorDocs  = blockDocs * 3 / 4
	copyFloorLinks = linkBlockRows / 4
)

// Section indices into the footer's section table, in file order. Every
// section is a block section.
const (
	secMeta = iota
	secTermVec
	secText
	secLinks
	secRedirects
	numSections
)

var sectionName = [numSections]string{"meta", "termvec", "text", "links", "redirects"}

// section is one footer table row.
type section struct {
	off    uint64
	len    uint64
	blocks uint32
}

// footer is the fixed trailer parsed at open.
type footer struct {
	sections [numSections]section
	docCount uint32
	minSeq   int64
	maxSeq   int64
	outLinks uint32 // link row count
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
	encodeMetaFields(e, m)
}

// encodeMetaFields is a Meta without its seq, for a WAL batch record,
// whose header carries its documents' first seq.
func encodeMetaFields(e *enc, m *Meta) {
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
	return seq, decodeMetaFields(d)
}

func decodeMetaFields(d *dec) (m Meta) {
	m.URL = d.str()
	m.FinalURL = d.str()
	m.Title = d.str()
	m.ContentType = d.str()
	m.Topic = d.str()
	m.Confidence = d.f64()
	m.Depth = int(d.varint())
	m.CrawledAtNanos = d.varint()
	m.IsTraining = d.bool()
	return m
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
