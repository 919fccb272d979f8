package dse

import (
	"context"
	"testing"

	"repro/internal/power"
	"repro/internal/uarch"
)

// The headline gate: on the Table 2 subspace, the heuristic search
// with budget = cardinality must recover the true exhaustive Pareto
// front bit-identically — same points in the same (enumeration) order,
// with float-equal objectives — because its statistics, model and
// power paths are the exact same code the exhaustive sweep runs.
func TestSearchRecoversExhaustiveFront(t *testing.T) {
	pw := profiled(t, "crc32")
	pm := power.NewModel()
	d := uarch.Table2Domain()

	pts, err := ExploreCtx(context.Background(), pw, Space(uarch.Default()), pm)
	if err != nil {
		t.Fatal(err)
	}
	want := ParetoFront(pts)

	res, err := Search(context.Background(), pw, d, uarch.Default(), pm, SearchOptions{
		Budget: int(d.Cardinality()),
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Evaluated) != d.Cardinality() {
		t.Fatalf("evaluated %d points, want the full cardinality %d", res.Evaluated, d.Cardinality())
	}
	if len(res.Front) != len(want) {
		t.Fatalf("front size %d, want %d", len(res.Front), len(want))
	}
	for i, j := range want {
		exh, got := pts[j], res.Front[i]
		if got.Cfg.Name != exh.Cfg.Name {
			t.Fatalf("front[%d] = %s, want %s", i, got.Cfg.Name, exh.Cfg.Name)
		}
		if got.ModelEDP != exh.ModelEDP || got.ModelCPI != exh.ModelCPI ||
			got.ModelSecs != exh.ModelSecs || got.ModelEnergyJ != exh.ModelEnergyJ ||
			got.ModelCycles != exh.ModelCycles {
			t.Fatalf("front[%d] %s objectives differ from exhaustive: %+v vs %+v",
				i, got.Cfg.Name, got, exh)
		}
	}
}

// On the larger extended domain the search must respect its budget —
// strictly fewer evaluations than exhaustive enumeration — while still
// streaming every evaluated point through OnBatch exactly once and
// reporting consistent counters.
func TestSearchBudgetedOnExtendedDomain(t *testing.T) {
	pw := profiled(t, "crc32")
	pm := power.NewModel()
	d := uarch.ExtendedDomain()

	const budget = 256
	gens, streamed := 0, 0
	res, err := Search(context.Background(), pw, d, uarch.Default(), pm, SearchOptions{
		Budget: budget,
		Seed:   7,
		OnBatch: func(gen int, pts []Point) error {
			if gen != gens {
				t.Fatalf("batch gen %d, want %d", gen, gens)
			}
			gens++
			streamed += len(pts)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != budget {
		t.Fatalf("evaluated %d, want exactly the budget %d", res.Evaluated, budget)
	}
	if int64(res.Evaluated) >= d.Cardinality() {
		t.Fatalf("evaluated %d, not strictly fewer than the %d-point space", res.Evaluated, d.Cardinality())
	}
	if streamed != res.Evaluated {
		t.Fatalf("streamed %d points, evaluated %d", streamed, res.Evaluated)
	}
	if gens != res.Generations {
		t.Fatalf("streamed %d generations, counted %d", gens, res.Generations)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Replays < 1 || res.Replays > res.Generations {
		t.Fatalf("replays = %d outside [1,%d]", res.Replays, res.Generations)
	}
}

// Equal seeds reproduce the search exactly: the evaluation sequence
// and the front, floats included.
func TestSearchDeterministic(t *testing.T) {
	pw := profiled(t, "crc32")
	pm := power.NewModel()
	d := uarch.ExtendedDomain()

	run := func() ([]string, SearchResult) {
		var names []string
		res, err := Search(context.Background(), pw, d, uarch.Default(), pm, SearchOptions{
			Budget: 96,
			Seed:   3,
			OnBatch: func(_ int, pts []Point) error {
				for _, p := range pts {
					names = append(names, p.Cfg.Name)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return names, res
	}
	names1, res1 := run()
	names2, res2 := run()
	if len(names1) != len(names2) {
		t.Fatalf("evaluation counts differ: %d vs %d", len(names1), len(names2))
	}
	for i := range names1 {
		if names1[i] != names2[i] {
			t.Fatalf("evaluation %d differs: %s vs %s", i, names1[i], names2[i])
		}
	}
	if len(res1.Front) != len(res2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(res1.Front), len(res2.Front))
	}
	for i := range res1.Front {
		a, b := res1.Front[i], res2.Front[i]
		if a.Cfg.Name != b.Cfg.Name || a.ModelEDP != b.ModelEDP {
			t.Fatalf("front[%d] differs: %s/%v vs %s/%v", i, a.Cfg.Name, a.ModelEDP, b.Cfg.Name, b.ModelEDP)
		}
	}
}

// A validating search fills the simulation fields on every streamed
// and frontier point, so dominance runs on simulated numbers.
func TestSearchValidated(t *testing.T) {
	pw := profiled(t, "crc32")
	pm := power.NewModel()
	res, err := Search(context.Background(), pw, uarch.Table2Domain(), uarch.Default(), pm, SearchOptions{
		Budget:   24,
		Seed:     1,
		Validate: true,
		OnBatch: func(_ int, pts []Point) error {
			for _, p := range pts {
				if p.Sim == nil {
					t.Fatalf("streamed point %s has no simulation result", p.Cfg.Name)
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		if p.Sim == nil || p.SimEDP <= 0 {
			t.Fatalf("front point %s not validated: %+v", p.Cfg.Name, p)
		}
	}
}

// A cancelled context aborts the search at a batch boundary with the
// context's error.
func TestSearchCancelled(t *testing.T) {
	pw := profiled(t, "crc32")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(ctx, pw, uarch.Table2Domain(), uarch.Default(), power.NewModel(), SearchOptions{Budget: 8})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The Pareto front keeps exactly the non-dominated points, including
// objective-equal duplicates, in ascending index order.
func TestParetoFront(t *testing.T) {
	pts := []Point{
		{ModelSecs: 1, ModelEDP: 4},
		{ModelSecs: 2, ModelEDP: 2}, // incomparable with 0
		{ModelSecs: 2, ModelEDP: 3}, // dominated by 1
		{ModelSecs: 3, ModelEDP: 1},
		{ModelSecs: 2, ModelEDP: 2}, // equal to 1: both stay
	}
	got := ParetoFront(pts)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front = %v, want %v", got, want)
		}
	}
}

// BestEDP breaks EDP ties to the lowest index, on both the model and
// the simulator side — the regression pin for deterministic winners.
func TestBestEDPTieBreaksLowestIndex(t *testing.T) {
	pts := []Point{
		{ModelEDP: 2, SimEDP: 7},
		{ModelEDP: 1, SimEDP: 5},
		{ModelEDP: 1, SimEDP: 5},
		{ModelEDP: 1, SimEDP: 4},
	}
	r := pipelineResultStub()
	for i := range pts[1:] {
		pts[i+1].Sim = &r
	}
	m, s := BestEDP(pts)
	if m != 1 {
		t.Errorf("model best = %d, want the lowest tied index 1", m)
	}
	if s != 3 {
		t.Errorf("sim best = %d, want 3", s)
	}
	pts[3].SimEDP = 5
	if _, s = BestEDP(pts); s != 1 {
		t.Errorf("sim best = %d, want the lowest tied index 1", s)
	}
}
