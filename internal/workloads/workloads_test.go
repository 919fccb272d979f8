package workloads

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/funcsim"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

func TestRegistry(t *testing.T) {
	if len(MiBench()) != 19 {
		t.Errorf("MiBench has %d kernels, want 19 (Figure 3)", len(MiBench()))
	}
	if len(SpecLike()) != 6 {
		t.Errorf("SpecLike has %d kernels, want 6", len(SpecLike()))
	}
	if len(Extended()) != 5 {
		t.Errorf("Extended has %d kernels, want 5", len(Extended()))
	}
	if len(All()) != 30 {
		t.Errorf("All has %d kernels", len(All()))
	}
	if len(Names()) != 30 {
		t.Errorf("Names has %d entries", len(Names()))
	}
	if _, err := ByName("sha"); err != nil {
		t.Errorf("ByName(sha): %v", err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	domains := map[string]bool{}
	for _, s := range MiBench() {
		domains[s.Domain] = true
	}
	// MiBench's six application domains must all be covered.
	for _, d := range []string{"auto", "consumer", "network", "office", "security", "telecom"} {
		if !domains[d] {
			t.Errorf("domain %q not covered", d)
		}
	}
}

// TestAllWorkloadsRunToCompletion executes every kernel and checks the
// dynamic instruction count lands in the intended simulation-friendly
// band. Out-of-range memory accesses or runaway loops fail here.
// TestByNameIndex checks the index behind ByName: every name Names
// lists resolves to the first spec All holds under it, an unknown name
// fails, and a hit allocates nothing.
func TestByNameIndex(t *testing.T) {
	all := All()
	for _, name := range Names() {
		got, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(all, func(s Spec) bool { return s.Name == name })
		want := all[i]
		if got.Name != want.Name || got.Domain != want.Domain ||
			reflect.ValueOf(got.Build).Pointer() != reflect.ValueOf(want.Build).Pointer() {
			t.Errorf("ByName(%q) = %+v, All holds %+v", name, got, want)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName of an unknown name succeeded")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("sha") }); n != 0 {
		t.Errorf("a ByName hit allocates %.1f times, want 0", n)
	}
}

func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Build()
			m, err := funcsim.New(p)
			if err != nil {
				t.Fatal(err)
			}
			m.MaxInstructions = 5_000_000
			n, err := m.RunCtx(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if n < 80_000 || n > 1_200_000 {
				t.Errorf("N = %d outside the intended band [80k, 1.2M]", n)
			}
		})
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, name := range []string{"sha", "qsort", "adpcm_c", "soplex_like"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (int64, [8]int64) {
			m := funcsim.MustNew(s.Build())
			n, err := m.RunCtx(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var mem [8]int64
			copy(mem[:], m.Mem[:8])
			return n, mem
		}
		n1, m1 := run()
		n2, m2 := run()
		if n1 != n2 || m1 != m2 {
			t.Errorf("%s not deterministic", name)
		}
	}
}

// TestWorkloadCharacters pins the qualitative properties the paper's
// analysis depends on: sha is ALU-dominated with high ILP; dijkstra is
// branchy; tiff2bw is multiply-heavy; jpeg_c has divides; mcf_like is
// a load-dependent pointer chase.
func TestWorkloadCharacters(t *testing.T) {
	prof := func(name string) *profile.Profile {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := harness.ProfileProgram(s.Build())
		if err != nil {
			t.Fatal(err)
		}
		return pw.Prof
	}

	sha := prof("sha")
	if sha.Mix(isa.ClassALU) < 0.60 {
		t.Errorf("sha ALU fraction %.2f, want > 0.60", sha.Mix(isa.ClassALU))
	}

	dij := prof("dijkstra")
	if dij.Mix(isa.ClassBranch) < 0.25 {
		t.Errorf("dijkstra branch fraction %.2f, want > 0.25", dij.Mix(isa.ClassBranch))
	}
	// The paper's width argument: dijkstra has shorter dependency
	// distances than sha (less ILP).
	if dij.DepsUnit.Mean() > sha.DepsUnit.Mean() {
		t.Errorf("dijkstra mean dep distance %.2f above sha's %.2f",
			dij.DepsUnit.Mean(), sha.DepsUnit.Mean())
	}

	bw := prof("tiff2bw")
	if bw.Mix(isa.ClassMul) < 0.10 {
		t.Errorf("tiff2bw multiply fraction %.2f, want > 0.10", bw.Mix(isa.ClassMul))
	}

	jc := prof("jpeg_c")
	if jc.NDiv == 0 {
		t.Error("jpeg_c has no divides")
	}

	mcf := prof("mcf_like")
	if mcf.DepsLd.Count[1] < mcf.N/10 {
		t.Errorf("mcf_like load-use deps at d=1 = %d of N=%d, want pointer-chase dominance",
			mcf.DepsLd.Count[1], mcf.N)
	}
}

func TestRRangeChecks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("R(64) did not panic")
		}
	}()
	R(64)
}

func TestRNG(t *testing.T) {
	r := newRNG(0)
	if r.s == 0 {
		t.Error("zero seed not replaced")
	}
	a := newRNG(5)
	b := newRNG(5)
	for i := 0; i < 10; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	for i := 0; i < 1000; i++ {
		v := a.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	if a.intn(0) != 0 {
		t.Error("intn(0) != 0")
	}
}

func TestEmitRotl(t *testing.T) {
	// rotl(0x80000001, 1, 32 bits) = 0x00000003.
	p := programForRotl()
	m := funcsim.MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Regs[2]; got != 0x3 {
		t.Errorf("rotl = %#x, want 0x3", got)
	}
}

func programForRotl() *program.Program {
	p := program.New("rotl", 16)
	b := p.Block("main")
	b.Li(1, 0x80000001)
	emitRotl(b, 2, 1, 1, 32, 3, 4)
	b.Halt()
	return p
}

// TestProgramDensity: a built program holds its initialized data at
// about 8 bytes a word. mcf_like, the suite's largest data image
// (512K words), may keep at most 1.25x that plus its code live on the
// heap.
func TestProgramDensity(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := McfLike()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	code := int64(unsafe.Sizeof(program.Block{})) * int64(len(p.Blocks))
	code += int64(unsafe.Sizeof(program.Inst{})) * int64(p.StaticLen())
	words := int64(p.Data.Len())
	if bound := 1.25*8*float64(words) + float64(code); float64(heap) > bound {
		t.Errorf("mcf_like holds %d heap bytes for %d data words and %d bytes of code, want <= %.0f", heap, words, code, bound)
	}
	runtime.KeepAlive(p)
}

// TestMcfLikeBuild pins McfLike's data image, by its program
// fingerprint, and the memory its build allocates: an int32
// permutation and a successor array handed to the image without a
// copy, about 6 MB where copying int64 arrays took 12.6 MB.
func TestMcfLikeBuild(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := McfLike()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("McfLike allocated %.1f MB, want at most 8", float64(got)/(1<<20))
	}
	const want = "f53f2078eb1bc68ae899a2ef2f08f02c8810bb7bdf99ee36b6744f44d3af6c0a"
	if got := p.Fingerprint(); got != want {
		t.Fatalf("McfLike fingerprint %s, want %s", got, want)
	}
}
