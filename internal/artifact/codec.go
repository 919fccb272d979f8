package artifact

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/profile"
)

// Fixed-order little-endian codecs for the scalar statistics riding
// along with a trace or plane. Array lengths are written explicitly
// and validated against this binary's constants on read: the identity
// key already prevents cross-ISA loads, this is defense in depth.

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendI64Slice(dst []byte, vs []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = appendI64(dst, v)
	}
	return dst
}

// i64Reader consumes fixed-order values from a payload, latching the
// first framing error so call sites stay linear.
type i64Reader struct {
	data []byte
	off  int
	err  error
}

func (r *i64Reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = fmt.Errorf("%w: truncated scalar payload", ErrInvalid)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *i64Reader) i64Slice(want int, what string) []int64 {
	if r.err != nil {
		return nil
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("%w: truncated %s length", ErrInvalid, what)
		return nil
	}
	n := int(binary.LittleEndian.Uint32(r.data[r.off:]))
	r.off += 4
	if n != want {
		r.err = fmt.Errorf("%w: %s has %d entries, this binary expects %d", ErrInvalid, what, n, want)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

func (r *i64Reader) str(what string) string {
	if r.err != nil {
		return ""
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("%w: truncated %s length", ErrInvalid, what)
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.data[r.off:]))
	r.off += 4
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("%w: %s overruns payload", ErrInvalid, what)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *i64Reader) finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes in %s payload", ErrInvalid, len(r.data)-r.off, what)
	}
	return nil
}

// encodeProfile serializes a machine-independent profile.
func encodeProfile(p *profile.Profile) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = appendI64(dst, p.N)
	dst = appendI64Slice(dst, p.ByClass[:])
	dst = appendI64Slice(dst, p.ByOp[:])
	for _, v := range []int64{p.NMul, p.NDiv, p.NLoad, p.NStore, p.NBranch, p.NJump, p.NTaken} {
		dst = appendI64(dst, v)
	}
	dst = appendI64Slice(dst, p.DepsUnit.Count[:])
	dst = appendI64Slice(dst, p.DepsLL.Count[:])
	dst = appendI64Slice(dst, p.DepsLd.Count[:])
	return dst
}

// decodeProfile rebuilds a profile, validating every array length
// against this binary's ISA and dependency-distance constants.
func decodeProfile(data []byte) (*profile.Profile, error) {
	r := &i64Reader{data: data}
	p := &profile.Profile{}
	p.Name = r.str("profile name")
	p.N = r.i64()
	copy(p.ByClass[:], r.i64Slice(isa.NumClasses, "per-class counts"))
	copy(p.ByOp[:], r.i64Slice(isa.NumOps, "per-opcode counts"))
	p.NMul = r.i64()
	p.NDiv = r.i64()
	p.NLoad = r.i64()
	p.NStore = r.i64()
	p.NBranch = r.i64()
	p.NJump = r.i64()
	p.NTaken = r.i64()
	copy(p.DepsUnit.Count[:], r.i64Slice(profile.MaxDepDist+1, "unit dependency profile"))
	copy(p.DepsLL.Count[:], r.i64Slice(profile.MaxDepDist+1, "long-latency dependency profile"))
	copy(p.DepsLd.Count[:], r.i64Slice(profile.MaxDepDist+1, "load dependency profile"))
	if err := r.finish("profile"); err != nil {
		return nil, err
	}
	return p, nil
}

// cacheStatsFields is the number of int64 fields in cache.Stats; the
// codec below writes them in declaration order.
const cacheStatsFields = 11

// encodeCacheStats serializes simulator-exact hierarchy statistics.
func encodeCacheStats(st cache.Stats) []byte {
	dst := make([]byte, 0, 8*cacheStatsFields)
	for _, v := range []int64{
		st.IL1Accesses, st.IL1Misses, st.IL2Misses,
		st.DL1Accesses, st.DL1Misses, st.DL2Misses,
		st.DL1LoadMisses, st.DL2LoadMisses,
		st.ITLBMisses, st.DTLBMisses, st.Writebacks,
	} {
		dst = appendI64(dst, v)
	}
	return dst
}

// decodeCacheStats rebuilds hierarchy statistics.
func decodeCacheStats(data []byte) (cache.Stats, error) {
	if len(data) != 8*cacheStatsFields {
		return cache.Stats{}, fmt.Errorf("%w: cache stats payload is %d bytes, want %d", ErrInvalid, len(data), 8*cacheStatsFields)
	}
	r := &i64Reader{data: data}
	st := cache.Stats{
		IL1Accesses: r.i64(), IL1Misses: r.i64(), IL2Misses: r.i64(),
		DL1Accesses: r.i64(), DL1Misses: r.i64(), DL2Misses: r.i64(),
		DL1LoadMisses: r.i64(), DL2LoadMisses: r.i64(),
		ITLBMisses: r.i64(), DTLBMisses: r.i64(), Writebacks: r.i64(),
	}
	return st, r.finish("cache stats")
}

// encodeAlias serializes an alias record: the length n of the plane it
// stands for and the identity of the mem-plane body that holds it.
func encodeAlias(n int64, holder string) []byte {
	dst := appendI64(nil, n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(holder)))
	return append(dst, holder...)
}

// decodeAlias rebuilds an alias record.
func decodeAlias(data []byte) (n int64, holder string, err error) {
	r := &i64Reader{data: data}
	n = r.i64()
	holder = r.str("alias holder identity")
	if err := r.finish("alias"); err != nil {
		return 0, "", err
	}
	if n < 0 || holder == "" {
		return 0, "", fmt.Errorf("%w: alias of %d instructions held by %q", ErrInvalid, n, holder)
	}
	return n, holder, nil
}
