package program

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// Run is a run of initialized data words at consecutive addresses:
// Vals[i] is the initial value of word Base+i.
type Run struct {
	Base int64
	Vals []int64
}

// last returns the address of the run's last word.
func (r Run) last() int64 { return r.Base + int64(len(r.Vals)) - 1 }

// Image is a program's initial data memory: the initialized words,
// kept as runs of consecutive addresses. Writes (Program.SetData and
// SetDataSlice) append runs in any order, and later writes win.
// Readers see the runs sorted by address, disjoint and non-empty: the
// first read after an out-of-order or overlapping write sorts and
// merges them. Every method takes the image's lock, so concurrent
// readers of a shared program are race-free. The zero Image is empty.
type Image struct {
	mu    sync.Mutex
	runs  []Run
	words int  // initialized words (with overwritten ones while dirty)
	dirty bool // runs may be out of order or overlap
}

// set writes one word, extending the last run when addr follows it.
func (d *Image) set(addr, val int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.runs); n > 0 {
		r := &d.runs[n-1]
		if addr > r.Base && addr-r.Base == int64(len(r.Vals)) {
			r.Vals = append(r.Vals, val)
			d.words++
			return
		}
	}
	d.add(Run{Base: addr, Vals: []int64{val}})
}

// setSlice writes consecutive words as one run of its own, a copy of
// vals unless owned hands vals itself over. A slice running past the
// top of the address space wraps to its bottom, as consecutive set
// calls would.
func (d *Image) setSlice(base int64, vals []int64, owned bool) {
	if !owned {
		vals = slices.Clone(vals)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if base > 0 && int64(len(vals))-1 > math.MaxInt64-base {
		k := math.MaxInt64 - base + 1
		d.add(Run{Base: base, Vals: vals[:k:k]})
		base, vals = math.MinInt64, vals[k:]
	}
	if len(vals) > 0 {
		d.add(Run{Base: base, Vals: vals})
	}
}

func (d *Image) add(r Run) {
	if n := len(d.runs); n > 0 && r.Base <= d.runs[n-1].last() {
		d.dirty = true
	}
	d.runs = append(d.runs, r)
	d.words += len(r.Vals)
}

// normalize sorts the runs by address and merges overlapping ones,
// laying each overlapping group down in write order so later writes
// win. The caller holds the lock.
func (d *Image) normalize() {
	if !d.dirty {
		return
	}
	rs := d.runs
	order := make([]int, len(rs)) // run indices, i.e. write order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(rs[a].Base, rs[b].Base), cmp.Compare(a, b))
	})
	out := make([]Run, 0, len(rs))
	words := 0
	for i := 0; i < len(order); {
		r := rs[order[i]]
		hi := r.last()
		j := i + 1
		for ; j < len(order) && rs[order[j]].Base <= hi; j++ {
			hi = max(hi, rs[order[j]].last())
		}
		if j > i+1 {
			group := order[i:j]
			slices.Sort(group)
			r = Run{Base: r.Base, Vals: make([]int64, hi-r.Base+1)}
			for _, k := range group {
				copy(r.Vals[rs[k].Base-r.Base:], rs[k].Vals)
			}
		}
		out = append(out, r)
		words += len(r.Vals)
		i = j
	}
	d.runs, d.words, d.dirty = out, words, false
}

// Runs returns the initialized words as runs sorted by address,
// disjoint and non-empty. The caller must not modify them.
func (d *Image) Runs() []Run {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.normalize()
	return d.runs
}

// Len returns the number of initialized words.
func (d *Image) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.normalize()
	return d.words
}

// Get returns the initial value of the word at addr and whether it is
// initialized.
func (d *Image) Get(addr int64) (int64, bool) {
	rs := d.Runs()
	i := sort.Search(len(rs), func(i int) bool { return rs[i].last() >= addr })
	if i < len(rs) && rs[i].Base <= addr {
		return rs[i].Vals[addr-rs[i].Base], true
	}
	return 0, false
}

// FirstOutside returns the lowest initialized address outside
// [0, size), if there is one.
func (d *Image) FirstOutside(size int64) (int64, bool) {
	rs := d.Runs()
	if len(rs) == 0 {
		return 0, false
	}
	if rs[0].Base < 0 {
		return rs[0].Base, true
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].last() >= size })
	if i == len(rs) {
		return 0, false
	}
	return max(rs[i].Base, size), true
}
