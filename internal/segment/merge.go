package segment

import (
	"errors"
	"fmt"
	"math"
)

// errMergeInputs reports inputs Merge cannot combine: segments of several
// shards, or seq ranges out of order or overlapping.
var errMergeInputs = errors.New("segment: merge inputs not seq-ordered segments of one shard")

// MergeStats reports what Merge wrote.
type MergeStats struct {
	Bytes int64
	Seqs  []int64 // the kept documents' seqs, in position order
	// Copied and Reencoded count input blocks — a document block once for
	// its three sections — by whether their frames were copied or their
	// surviving rows re-encoded.
	Copied, Reencoded int
}

// mergeOp is one step of a merged block section: copy block blk of src
// whole (row < 0), or re-encode its row-th row.
type mergeOp struct {
	src      *Reader
	blk, row int
}

// Merge writes the live rows of inputs — segments of one shard, in
// ascending, non-overlapping seq order — to a new segment at path,
// atomically like Build. live(seq) is asked once per input row, in order,
// and reports whether the row survives; a surviving row is written as
// its input stored it.
//
// A document block whose rows all survive is copied frame for frame,
// CRC-checked but not inflated. Other blocks' surviving rows, and those of
// blocks below copyFloorDocs rows, are re-encoded from their raw row
// bytes, cut every blockDocs rows and before the next copied block. Link
// and redirect blocks are copied likewise, unless below copyFloorLinks
// rows.
func Merge(path string, inputs []*Reader, live func(seq int64) bool) (MergeStats, error) {
	var st MergeStats
	for i, in := range inputs {
		if in.ft.shard != inputs[0].ft.shard {
			return st, fmt.Errorf("segment: merge %s: %s is shard %d, not %d: %w", path, in.path, in.ft.shard, inputs[0].ft.shard, errMergeInputs)
		}
		for _, prev := range inputs[:i] {
			if in.ft.docCount > 0 && prev.ft.docCount > 0 && in.ft.minSeq <= prev.ft.maxSeq {
				return st, fmt.Errorf("segment: merge %s: %s seqs [%d,%d] not after %s's [%d,%d]: %w",
					path, in.path, in.ft.minSeq, in.ft.maxSeq, prev.path, prev.ft.minSeq, prev.ft.maxSeq, errMergeInputs)
			}
		}
	}
	if len(inputs) == 0 {
		return st, fmt.Errorf("segment: merge %s: no inputs: %w", path, errMergeInputs)
	}
	ops, err := planDocs(inputs, live, &st)
	if err != nil {
		return st, err
	}
	ft := footer{shard: inputs[0].ft.shard, docCount: uint32(len(st.Seqs))}
	if n := len(st.Seqs); n > 0 {
		ft.minSeq, ft.maxSeq = st.Seqs[0], st.Seqs[n-1]
	}
	st.Bytes, err = writeFile(path, func(w *countingWriter) error {
		if err := writeHeader(w, ft.shard); err != nil {
			return err
		}
		for s := 0; s < numSections; s++ {
			var blocks []block
			var err error
			switch s {
			case secLinks, secRedirects:
				blocks, err = sectionBlocks(s, linkBlockRows, planRows(s, inputs, &st))
			default:
				blocks, err = sectionBlocks(s, blockDocs, ops)
			}
			if err != nil {
				return err
			}
			if ft.sections[s], err = writeBlockSection(w, blocks, sectionLevel(s)); err != nil {
				return err
			}
			for _, b := range blocks {
				if s == secLinks {
					ft.outLinks += uint32(b.rows)
				} else if s == secRedirects {
					ft.redirs += uint32(b.rows)
				}
			}
		}
		var e enc
		ft.encode(&e)
		_, err := w.Write(e.b)
		return err
	})
	return st, err
}

// planDocs walks every input's meta rows, asks live about each, and lays
// out the document sections as copy and re-encode steps. It appends the
// kept seqs to st.
func planDocs(inputs []*Reader, live func(int64) bool, st *MergeStats) ([]mergeOp, error) {
	var ops []mergeOp
	last := int64(math.MinInt64)
	for _, in := range inputs {
		t := &in.tables[secMeta]
		for blk := range t.offs {
			raw, err := in.readBlock(secMeta, blk)
			if err != nil {
				return nil, err
			}
			d := newDec(raw, in.path, "meta")
			first, clean := len(ops), t.rows(blk) >= copyFloorDocs
			for i := 0; i < t.rows(blk); i++ {
				seq, _ := decodeMeta(d)
				if d.err == nil && (seq <= last || seq < in.ft.minSeq || seq > in.ft.maxSeq) {
					d.fail("seq %d out of order (after %d, footer range [%d,%d])", seq, last, in.ft.minSeq, in.ft.maxSeq)
				}
				if d.err != nil {
					return nil, d.err
				}
				last = seq
				if !live(seq) {
					clean = false
					continue
				}
				ops = append(ops, mergeOp{src: in, blk: blk, row: i})
				st.Seqs = append(st.Seqs, seq)
			}
			if clean {
				ops = append(ops[:first], mergeOp{src: in, blk: blk, row: -1})
				st.Copied++
			} else {
				st.Reencoded++
			}
		}
	}
	return ops, nil
}

// sectionBlocks lays out section s from ops: copied frames, and re-encoded
// rows as their raw bytes, cut every per rows and before each copied
// frame.
func sectionBlocks(s, per int, ops []mergeOp) ([]block, error) {
	out := &rawBlocks{per: per}
	var src *Reader // raw is block blk of src, inflated once for its run of rows
	var blk int
	var raw []byte
	var starts []uint32
	for i := range ops {
		op := &ops[i]
		switch {
		case op.row < 0:
			frame, err := op.src.frame(s, op.blk)
			if err != nil {
				return nil, err
			}
			out.frame(frame, op.src.tables[s].rows(op.blk))
		default:
			if op.src != src || op.blk != blk {
				var err error
				if raw, err = op.src.readBlock(s, op.blk); err == nil {
					starts, err = op.src.rowStarts(s, raw, op.src.tables[s].rows(op.blk))
				}
				if err != nil {
					return nil, err
				}
				src, blk = op.src, op.blk
			}
			out.add(func(e *enc) { e.raw(raw[starts[op.row]:starts[op.row+1]]) })
		}
	}
	return out.finish(), nil
}

// planRows lays out link or redirect section s: each input's blocks copied,
// or their rows re-encoded.
func planRows(s int, inputs []*Reader, st *MergeStats) []mergeOp {
	var ops []mergeOp
	for _, in := range inputs {
		t := &in.tables[s]
		for blk := range t.offs {
			if t.rows(blk) >= copyFloorLinks {
				ops = append(ops, mergeOp{src: in, blk: blk, row: -1})
				st.Copied++
				continue
			}
			st.Reencoded++
			for row := 0; row < t.rows(blk); row++ {
				ops = append(ops, mergeOp{src: in, blk: blk, row: row})
			}
		}
	}
	return ops
}
