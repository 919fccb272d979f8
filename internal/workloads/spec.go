package workloads

import (
	"repro/internal/program"
)

// The SPEC-CPU2006-like kernels exercise working sets far larger than
// the 512 KB default L2, producing the memory-dominated CPI behaviour
// of the paper's Figure 6 validation. Each mirrors the memory idiom of
// its namesake: mcf's pointer chasing, libquantum's streaming sweeps,
// milc's strided lattice arithmetic, lbm's stencil updates, omnetpp's
// heap-ordered event queue and soplex's sparse indirect gathers.

// McfLike chases a randomized pointer cycle spread across a 2 MB
// region, with small per-node bookkeeping arithmetic. Nearly every hop
// misses in L2, serialized by the load-use dependence — the worst-case
// in-order memory behaviour.
func McfLike() *program.Program {
	const (
		nodesWords = 512 * 1024 // 2 MB of next pointers
		hops       = 28000
		chainBase  = 0x100
	)
	p := program.New("mcf_like", chainBase+nodesWords+64)
	// Build one random permutation cycle so the chase never repeats a
	// block until the whole region has been visited.
	r := newRNG(0x3CF1)
	perm := make([]int32, nodesWords)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(int64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int64, nodesWords)
	for i := 0; i < len(perm); i++ {
		next[perm[i]] = int64(perm[(i+1)%len(perm)])
	}
	p.AdoptDataSlice(chainBase, next)

	node, cnt, n := R(1), R(2), R(3)
	acc, t := R(4), R(5)

	b := p.Block("init")
	b.Li(node, 0)
	b.Li(cnt, 0)
	b.Li(n, hops)
	b.Li(acc, 0)

	b = p.LoopBlockN("hop", "hop", 4)
	b.Ld(node, node, chainBase) // node = next[node]
	b.Add(acc, acc, node)       // cost accumulation
	b.Andi(t, node, 1)
	b.Add(acc, acc, t)
	b.Addi(cnt, cnt, 1)
	b.Blt(cnt, n, "hop")

	b = p.Block("done")
	b.St(acc, R(0), 0)
	b.Halt()
	return p
}

// LibquantumLike streams over a 150K-word (600 KB) gate array applying
// a toggle to every amplitude: unit-stride loads and stores whose
// blocks miss in L1 and mostly in L2, with trivially predictable
// branches — bandwidth-bound streaming.
func LibquantumLike() *program.Program {
	const (
		words   = 150 * 1024
		arrBase = 0x100
		passes  = 1
	)
	p := program.New("libquantum_like", arrBase+words+64)
	// Memory defaults to zero; initialize only a sparse sample so the
	// build stays cheap — the access pattern is what matters.
	r := newRNG(0x11B4)
	for i := 0; i < 4096; i++ {
		p.SetData(arrBase+r.intn(words), r.intn(1<<30))
	}

	i, n, v, mask := R(1), R(2), R(3), R(4)
	pass, np := R(5), R(6)

	b := p.Block("init")
	b.Li(mask, 0x55AA55)
	b.Li(n, words)
	b.Li(pass, 0)
	b.Li(np, passes)

	b = p.Block("pass")
	b.Li(i, 0)
	b = p.LoopBlockN("sweep", "sweep", 4)
	b.Ld(v, i, arrBase)
	b.Xor(v, v, mask)
	b.Addi(v, v, 3)
	b.St(v, i, arrBase)
	b.Addi(i, i, 1)
	b.Blt(i, n, "sweep")

	b = p.Block("pass_latch")
	b.Addi(pass, pass, 1)
	b.Blt(pass, np, "pass")

	b = p.Block("done")
	b.Ld(v, R(0), arrBase)
	b.St(v, R(0), 0)
	b.Halt()
	return p
}

// MilcLike performs strided multiply-accumulate over a large lattice
// (su3-style link updates): each site gathers several spread-out
// operands, multiplies and stores back — mixed stride/miss behaviour
// with real arithmetic between misses.
func MilcLike() *program.Program {
	const (
		sites    = 22000
		stride   = 10 // words between consecutive sites
		aBase    = 0x100
		bBase    = aBase + sites*stride + 64
		totalMem = bBase + sites*stride + 128
	)
	p := program.New("milc_like", totalMem)
	r := newRNG(0x311C)
	for i := 0; i < 8192; i++ {
		p.SetData(aBase+r.intn(sites*stride), r.intn(4096)-2048)
		p.SetData(bBase+r.intn(sites*stride), r.intn(4096)-2048)
	}

	i, n := R(1), R(2)
	pa, pb := R(3), R(4)
	v1, v2, v3, acc, t := R(5), R(6), R(7), R(8), R(9)
	cs := R(10)

	b := p.Block("init")
	b.Li(i, 0)
	b.Li(n, sites)
	b.Li(pa, aBase)
	b.Li(pb, bBase)
	b.Li(cs, stride)
	b.Li(acc, 0)

	b = p.LoopBlockN("site", "site", 4)
	b.Ld(v1, pa, 0)
	b.Ld(v2, pb, 0)
	b.Ld(v3, pa, 4)
	b.Mul(t, v1, v2)
	b.Add(acc, acc, t)
	b.Mul(t, v2, v3)
	b.Srai(t, t, 6)
	b.St(t, pa, 1)
	b.Add(pa, pa, cs)
	b.Add(pb, pb, cs)
	b.Addi(i, i, 1)
	b.Blt(i, n, "site")

	b = p.Block("done")
	b.St(acc, R(0), 0)
	b.Halt()
	return p
}

// LbmLike sweeps a 2D 5-point stencil from one large grid into
// another: four neighbor loads and a weighted combine per cell, with
// in/out grids together exceeding the L2.
func LbmLike() *program.Program {
	const (
		width   = 330
		height  = 130
		inBase  = 0x100
		outBase = inBase + width*height + 64
	)
	p := program.New("lbm_like", outBase+width*height+128)
	r := newRNG(0x1B31)
	for i := 0; i < 8192; i++ {
		p.SetData(inBase+r.intn(width*height), r.intn(512))
	}

	x, y := R(1), R(2)
	c, nN, nS, nE, nW := R(3), R(4), R(5), R(6), R(7)
	acc, addr, t := R(8), R(9), R(10)
	cw, chh := R(11), R(12)
	rowPtr := R(13)

	b := p.Block("init")
	b.Li(y, 1)
	b.Li(cw, width)
	b.Li(chh, height-1)

	b = p.Block("row")
	b.Mul(rowPtr, y, cw)
	b.Li(x, 1)

	b = p.LoopBlockN("cell", "cell", 4)
	b.Add(addr, rowPtr, x)
	b.Ld(c, addr, inBase)
	b.Ld(nE, addr, inBase+1)
	b.Ld(nW, addr, inBase-1)
	b.Ld(nS, addr, inBase+width)
	b.Ld(nN, addr, inBase-width)
	b.Shli(acc, c, 2) // 4*c
	b.Add(t, nE, nW)
	b.Add(acc, acc, t)
	b.Add(t, nN, nS)
	b.Add(acc, acc, t)
	b.Srai(acc, acc, 3) // /8 relaxation
	b.St(acc, addr, outBase)
	b.Addi(x, x, 1)
	b.Addi(t, cw, -1)
	b.Blt(x, t, "cell")

	b = p.Block("row_latch")
	b.Addi(y, y, 1)
	b.Blt(y, chh, "row")

	b = p.Block("done")
	b.Ld(t, R(0), outBase+width+1)
	b.St(t, R(0), 0)
	b.Halt()
	return p
}

// OmnetppLike drives a binary-heap event queue spread over 1 MB:
// alternating inserts (sift-up) and extract-mins (sift-down) with
// data-dependent branches and scattered accesses along heap paths.
func OmnetppLike() *program.Program {
	const (
		heapBase = 0x100
		maxHeap  = 256 * 1024
		initial  = 200 * 1024 // pre-filled heap entries
		ops      = 5200
	)
	p := program.New("omnetpp_like", heapBase+maxHeap+128)
	// Pre-fill a valid min-heap: an increasing sequence with jitter is
	// heap-ordered if jitter is bounded by the step; build it directly.
	r := newRNG(0x03E7)
	heap := make([]int64, initial)
	for i := range heap {
		parent := int64(0)
		if i > 0 {
			parent = heap[(i-1)/2]
		}
		heap[i] = parent + 1 + r.intn(64)
	}
	p.SetDataSlice(heapBase, heap)

	sz, op, nOps := R(1), R(2), R(3)
	idx, parent, child, sib := R(4), R(5), R(6), R(7)
	v, pv, cv, t := R(8), R(9), R(10), R(11)
	seed := R(12)

	b := p.Block("init")
	b.Li(sz, initial)
	b.Li(op, 0)
	b.Li(nOps, ops)
	b.Li(seed, 0x33551)

	b = p.Block("op")
	// Alternate: even ops insert, odd ops extract-min.
	b.Andi(t, op, 1)
	b.Bne(t, R(0), "extract")

	// --- Insert: key from a xorshift-ish register sequence. ---
	b.Shli(t, seed, 7)
	b.Xor(seed, seed, t)
	b.Shri(t, seed, 9)
	b.Xor(seed, seed, t)
	b.Andi(v, seed, 0xFFFFF)
	b.Add(idx, sz, R(0))
	b.Addi(sz, sz, 1)
	b = p.Block("sift_up")
	b.Beq(idx, R(0), "up_done")
	b.Addi(parent, idx, -1)
	b.Shri(parent, parent, 1)
	b.Ld(pv, parent, heapBase)
	b.Bge(v, pv, "up_done")
	b.St(pv, idx, heapBase)
	b.Add(idx, parent, R(0))
	b.Jmp("sift_up")
	b = p.Block("up_done")
	b.St(v, idx, heapBase)
	b.Jmp("op_latch")

	// --- Extract-min: move last to root, sift down. ---
	b = p.Block("extract")
	b.Addi(sz, sz, -1)
	b.Ld(v, sz, heapBase)
	b.Li(idx, 0)
	b = p.Block("sift_down")
	b.Shli(child, idx, 1)
	b.Addi(child, child, 1)
	b.Bge(child, sz, "down_done")
	b.Ld(cv, child, heapBase)
	b.Addi(sib, child, 1)
	b.Bge(sib, sz, "pick")
	b.Ld(t, sib, heapBase)
	b.Bge(t, cv, "pick")
	b.Add(child, sib, R(0))
	b.Add(cv, t, R(0))
	b = p.Block("pick")
	b.Bge(cv, v, "down_done")
	b.St(cv, idx, heapBase)
	b.Add(idx, child, R(0))
	b.Jmp("sift_down")
	b = p.Block("down_done")
	b.St(v, idx, heapBase)

	b = p.Block("op_latch")
	b.Addi(op, op, 1)
	b.Blt(op, nOps, "op")

	b = p.Block("done")
	b.Ld(t, R(0), heapBase)
	b.St(t, R(0), 0)
	b.Halt()
	return p
}

// SoplexLike performs sparse matrix–vector products in CSR form: per
// nonzero an index load, an indirect gather from a large dense vector,
// a value load and a multiply-accumulate. Indirect gathers dominate
// the miss profile.
func SoplexLike() *program.Program {
	const (
		rows      = 2600
		nnzPerRow = 14
		nnz       = rows * nnzPerRow
		vecLen    = 192 * 1024 // 768 KB dense vector
		colBase   = 0x100
		valBase   = colBase + nnz + 64
		vecBase   = valBase + nnz + 64
		outBase   = vecBase + vecLen + 64
	)
	p := program.New("soplex_like", outBase+rows+128)
	r := newRNG(0x50F1)
	cols := make([]int64, nnz)
	vals := make([]int64, nnz)
	for i := range cols {
		cols[i] = r.intn(vecLen)
		vals[i] = r.intn(512) - 256
	}
	p.SetDataSlice(colBase, cols)
	p.SetDataSlice(valBase, vals)
	for i := 0; i < 8192; i++ {
		p.SetData(vecBase+r.intn(vecLen), r.intn(1024)-512)
	}

	row, k, kEnd := R(1), R(2), R(3)
	col, xv, av, acc, t := R(4), R(5), R(6), R(7), R(8)
	cRows, cNnz := R(9), R(10)

	b := p.Block("init")
	b.Li(row, 0)
	b.Li(k, 0)
	b.Li(cRows, rows)
	b.Li(cNnz, nnzPerRow)

	b = p.Block("row")
	b.Add(kEnd, k, cNnz)
	b.Li(acc, 0)

	b = p.LoopBlockN("nz", "nz", 2)
	b.Ld(col, k, colBase)
	b.Ld(xv, col, vecBase)
	b.Ld(av, k, valBase)
	b.Mul(t, xv, av)
	b.Add(acc, acc, t)
	b.Addi(k, k, 1)
	b.Blt(k, kEnd, "nz")

	b = p.Block("row_store")
	b.Srai(acc, acc, 4)
	b.St(acc, row, outBase)
	b.Addi(row, row, 1)
	b.Blt(row, cRows, "row")

	b = p.Block("done")
	b.Ld(t, R(0), outBase)
	b.St(t, R(0), 0)
	b.Halt()
	return p
}
