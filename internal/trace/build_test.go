package trace

import "slices"

// appendInst records one instruction as a recorder does: its tuple's
// id, then, for a load or store, its address.
func appendInst(b *Builder, s Static, addr uint32) {
	id, err := b.Intern(s)
	if err != nil {
		panic(err)
	}
	b.AppendID(id)
	if s.Flags&FlagMem != 0 {
		b.AppendAddr(addr)
	}
}

// traceOf builds the n-instruction trace whose instruction i has the
// tuple and address inst(i).
func traceOf(n int64, inst func(i int64) (Static, uint32)) *Trace {
	b := NewBuilder()
	for i := int64(0); i < n; i++ {
		s, addr := inst(i)
		appendInst(b, s, addr)
	}
	return b.Trace()
}

// sameColumns reports whether a and b store the same dictionary and
// the same chunks: bases, lengths, id widths, ids and addresses.
func sameColumns(a, b *Trace) bool {
	if a.Len() != b.Len() || a.NumChunks() != b.NumChunks() || !slices.Equal(a.Dictionary(), b.Dictionary()) {
		return false
	}
	for i := range a.chunks {
		x, y := &a.chunks[i], &b.chunks[i]
		if x.Base != y.Base || x.N != y.N || x.Wide() != y.Wide() ||
			!slices.Equal(x.ID8, y.ID8) || !slices.Equal(x.ID16, y.ID16) || !slices.Equal(x.Addr, y.Addr) {
			return false
		}
	}
	return true
}

// firstMismatch returns the first position of tr whose tuple or
// address differs from inst's, tr.Len() if tr holds an address past its
// last load or store, or -1 if tr reads back exactly what inst builds.
func firstMismatch(tr *Trace, inst func(i int64) (Static, uint32)) int64 {
	for c := range tr.chunks {
		ck := &tr.chunks[c]
		k := 0
		for j := 0; j < ck.N; j++ {
			s, addr := inst(ck.Base + int64(j))
			if *ck.Tuple(j) != s {
				return ck.Base + int64(j)
			}
			if s.Flags&FlagMem != 0 {
				if ck.Addr[k] != addr {
					return ck.Base + int64(j)
				}
				k++
			}
		}
		if k != len(ck.Addr) {
			return tr.Len()
		}
	}
	return -1
}

// readAll reads every instruction's tuple and, for a load or store, its
// address, and returns how many instructions it read. It panics on an
// id outside the dictionary or a missing address.
func readAll(tr *Trace) int64 {
	var n int64
	for c := range tr.chunks {
		ck := &tr.chunks[c]
		k := 0
		for j := 0; j < ck.N; j++ {
			if ck.Tuple(j).Flags&FlagMem != 0 {
				_ = ck.Addr[k]
				k++
			}
			n++
		}
	}
	return n
}
