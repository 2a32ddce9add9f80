package segment

import (
	"compress/flate"
	"sync"
)

// Exported wrappers over the internal encoder/decoder so the store's WAL
// record payloads share one wire vocabulary (varints, length-prefixed
// strings, the Meta and term-vector forms) and one DEFLATE codec with the
// segment file format, and share the same never-panic decode discipline.

// Enc builds a WAL record payload.
type Enc struct{ e enc }

func (p *Enc) Uvarint(v uint64)        { p.e.uvarint(v) }
func (p *Enc) Varint(v int64)          { p.e.varint(v) }
func (p *Enc) F64(v float64)           { p.e.f64(v) }
func (p *Enc) Byte(v byte)             { p.e.byte(v) }
func (p *Enc) Bool(v bool)             { p.e.bool(v) }
func (p *Enc) Str(s string)            { p.e.str(s) }
func (p *Enc) MetaFields(m *Meta)      { encodeMetaFields(&p.e, m) }
func (p *Enc) Raw(b []byte)            { p.e.raw(b) }
func (p *Enc) TermVec(vec []TermCount) { encodeTermVec(&p.e, vec) }
func (p *Enc) Bytes() []byte           { return p.e.b }
func (p *Enc) Reset()                  { p.e.reset() }

// Dec reads a WAL record payload with the latching-error discipline: the
// first malformed read sets Err and later reads return zero values.
type Dec struct{ d dec }

// NewDecoder decodes b; context names the source in error messages.
func NewDecoder(b []byte, context string) *Dec {
	return &Dec{d: dec{b: b, file: context, sect: "record"}}
}

func (p *Dec) Uvarint() uint64                     { return p.d.uvarint() }
func (p *Dec) Varint() int64                       { return p.d.varint() }
func (p *Dec) F64() float64                        { return p.d.f64() }
func (p *Dec) Byte() byte                          { return p.d.byte() }
func (p *Dec) Bool() bool                          { return p.d.bool() }
func (p *Dec) Str() string                         { return p.d.str() }
func (p *Dec) Remaining() int                      { return p.d.remaining() }
func (p *Dec) Err() error                          { return p.d.err }
func (p *Dec) MetaFields() Meta                    { return decodeMetaFields(&p.d) }
func (p *Dec) TermVec(buf []TermCount) []TermCount { return decodeTermVec(&p.d, buf) }

// Rest returns the undecoded bytes without copying and consumes them.
func (p *Dec) Rest() []byte { return p.d.slice(p.d.remaining()) }

// recordDeflaters pools the BestSpeed encoders Deflate uses. An encoder
// is ≈1.2 MB and takes ≈1 ms to allocate, far more than one WAL record
// costs to compress, so none is built per call.
var recordDeflaters = sync.Pool{New: func() any {
	d := &recordDeflater{}
	d.fw, _ = flate.NewWriter(&d.out, flate.BestSpeed) // only an invalid level errors
	return d
}}

type recordDeflater struct {
	fw  *flate.Writer
	out appendWriter
}

// appendWriter is an io.Writer that appends to a slice.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// Deflate appends raw, DEFLATE-compressed at BestSpeed, to dst and returns
// the extended slice.
func Deflate(dst, raw []byte) []byte {
	d := recordDeflaters.Get().(*recordDeflater)
	d.out.b = dst
	d.fw.Reset(&d.out)
	// appendWriter never fails, so neither do Write and Close.
	_, _ = d.fw.Write(raw)
	_ = d.fw.Close()
	dst = d.out.b
	d.out.b = nil
	recordDeflaters.Put(d)
	return dst
}

// Inflate decompresses comp, which must inflate to exactly rawLen bytes,
// into dst's storage, with the pooled decoders and bounds segment blocks
// are read with: a rawLen above what comp can inflate to, or above the
// largest WAL record, fails before anything is allocated. context names
// the source in errors, which are all *CorruptError.
func Inflate(dst, comp []byte, rawLen uint64, context string) ([]byte, error) {
	return inflate(dst, comp, rawLen, context, "record")
}
