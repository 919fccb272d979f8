package program

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a SHA-256 content hash of the program: every
// block (labels, loop metadata, instructions) and every initialized
// data word, in deterministic order. Two programs with the same
// fingerprint execute identically, so the artifact store folds it into
// the workload identity — editing a workload kernel (or anything that
// changes its built IR) moves the artifact to a new key instead of
// silently rehydrating a stale trace.
//
// The hash is length-prefixed field by field, so adjacent variable-
// length values (labels, block boundaries) can never alias. Fields are
// encoded into a buffer that is hashed in large writes.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	var buf []byte
	wi := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if len(buf) >= 32<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	ws := func(s string) {
		wi(int64(len(s)))
		buf = append(buf, s...)
	}
	ws(p.Name)
	wi(p.MemWords, int64(len(p.Blocks)))
	for _, blk := range p.Blocks {
		ws(blk.Label)
		ws(blk.LoopLatch)
		head := int64(0)
		if blk.LoopHead {
			head = 1
		}
		wi(head, blk.TripMultiple, int64(len(blk.Insts)))
		for i := range blk.Insts {
			in := &blk.Insts[i]
			ws(in.Label)
			wi(int64(in.Op), int64(in.Dst), int64(in.Src1), int64(in.Src2), in.Imm)
		}
	}
	wi(int64(p.Data.Len()))
	for _, r := range p.Data.Runs() {
		for i, v := range r.Vals {
			wi(r.Base+int64(i), v)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
