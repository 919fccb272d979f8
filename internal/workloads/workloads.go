// Package workloads provides the benchmark programs: 19 MiBench-like
// kernels spanning the suite's six application domains, plus a set of
// memory-intensive SPEC-CPU2006-like kernels. Each kernel implements
// the same algorithm family as its namesake (hashing, shortest path,
// dithering, DCT codecs, tries, sorting, image filters, pointer
// chasing, streaming, stencils), written directly in the program-IR
// builder DSL, so that profiling yields realistic, program-derived
// instruction mixes, dependency-distance profiles, branch behaviour
// and memory locality.
//
// Dynamic instruction counts are tuned to a few hundred thousand per
// kernel: long enough for caches and predictors to reach steady state,
// short enough that a full design-space sweep stays laptop-scale.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/program"
)

// Spec names a benchmark and how to build it.
type Spec struct {
	Name   string
	Domain string // MiBench domain, or "spec2006" for the SPEC-like set
	Build  func() *program.Program
}

// MiBench returns the 19 MiBench-like kernels in the paper's Figure 3
// order.
func MiBench() []Spec {
	return []Spec{
		{"adpcm_c", "telecom", AdpcmC},
		{"adpcm_d", "telecom", AdpcmD},
		{"dijkstra", "network", Dijkstra},
		{"gsm_c", "telecom", GsmC},
		{"jpeg_c", "consumer", JpegC},
		{"jpeg_d", "consumer", JpegD},
		{"lame", "consumer", Lame},
		{"patricia", "network", Patricia},
		{"qsort", "auto", Qsort},
		{"rsynth", "office", Rsynth},
		{"sha", "security", Sha},
		{"stringsearch", "office", Stringsearch},
		{"susan_c", "auto", SusanC},
		{"susan_e", "auto", SusanE},
		{"susan_s", "auto", SusanS},
		{"tiff2bw", "consumer", Tiff2BW},
		{"tiff2rgba", "consumer", Tiff2RGBA},
		{"tiffdither", "consumer", TiffDither},
		{"tiffmedian", "consumer", TiffMedian},
	}
}

// SpecLike returns the memory-intensive SPEC-CPU2006-like kernels used
// for the Figure 6 validation.
func SpecLike() []Spec {
	return []Spec{
		{"mcf_like", "spec2006", McfLike},
		{"libquantum_like", "spec2006", LibquantumLike},
		{"milc_like", "spec2006", MilcLike},
		{"lbm_like", "spec2006", LbmLike},
		{"omnetpp_like", "spec2006", OmnetppLike},
		{"soplex_like", "spec2006", SoplexLike},
	}
}

// All returns every workload: the paper's 19 MiBench-like kernels,
// the 6 SPEC-like kernels and the 5 extended MiBench kernels.
func All() []Spec {
	out := append([]Spec(nil), MiBench()...)
	out = append(out, SpecLike()...)
	return append(out, Extended()...)
}

// byName indexes All by name, built on first use.
var byName = sync.OnceValue(func() map[string]Spec {
	m := map[string]Spec{}
	for _, s := range All() {
		if _, dup := m[s.Name]; !dup {
			m[s.Name] = s
		}
	}
	return m
})

// ByName returns the named workload.
func ByName(name string) (Spec, error) {
	if s, ok := byName()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns all workload names, sorted.
func Names() []string {
	var out []string
	for _, s := range All() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// R converts a small integer to a register, panicking when out of
// range; it keeps kernel code terse.
func R(n int) isa.Reg {
	if n < 0 || n >= isa.NumRegs {
		panic(fmt.Sprintf("workloads: register r%d out of range", n))
	}
	return isa.Reg(n)
}

// rng is a deterministic xorshift64* generator used to synthesize
// input data (waveforms, images, graphs, key sets) at build time.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// emitRotl emits dst = rotate-left(src, k) within width bits using two
// shifts and an or, via the two scratch registers t1 and t2.
func emitRotl(b *program.Builder, dst, src isa.Reg, k, width int64, t1, t2 isa.Reg) {
	b.Shli(t1, src, k)
	b.Shri(t2, src, width-k)
	b.Or(dst, t1, t2)
	if width < 64 {
		// Mask back to the word width so values stay bounded.
		b.Andi(dst, dst, (int64(1)<<width)-1)
	}
}
