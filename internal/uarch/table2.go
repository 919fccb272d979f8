package uarch

import (
	"fmt"
	"strconv"
)

// The paper's Table 2 design-space domain, as thin accessors over
// Table2Domain() — the typed parameter-domain description in domain.go
// is the single source of truth shared by the design-space enumeration
// (dse.Space), the CLI flag validation of cmd/inorder-model and the
// request decoding of the prediction service (internal/service): a
// value a CLI or HTTP client may supply is valid exactly when the
// domain's axis accepts it.

// Table2Widths returns the superscalar widths of the Table 2 space.
func Table2Widths() []int {
	a, _, _ := Table2Domain().AxisByName("width")
	return append([]int(nil), a.ints...)
}

// Table2L2SizesKB returns the L2 sizes (in KB) of the Table 2 space.
func Table2L2SizesKB() []int {
	a, _, _ := Table2Domain().AxisByName("l2kb")
	return append([]int(nil), a.ints...)
}

// Table2L2Ways returns the L2 associativities of the Table 2 space.
func Table2L2Ways() []int {
	a, _, _ := Table2Domain().AxisByName("l2ways")
	return append([]int(nil), a.ints...)
}

// Table2Predictors returns the branch predictors of the Table 2 space.
func Table2Predictors() []PredictorKind {
	return []PredictorKind{PredGShare1KB, PredHybrid3_5KB}
}

// PredictorKinds returns every predictor configuration the simulator
// knows, Table 2 ones first.
func PredictorKinds() []PredictorKind {
	return []PredictorKind{PredGShare1KB, PredHybrid3_5KB, PredBimodal2KB, PredStaticNT}
}

// PredictorByName resolves the CLI/service spelling of a predictor:
// the short Table 2 spellings ("gshare", "hybrid") plus the canonical
// names of the ablation kinds. The rejection lists the valid spellings
// dynamically from the known kinds — it is never hand-maintained.
func PredictorByName(name string) (PredictorKind, error) {
	var valid []string
	for _, k := range PredictorKinds() {
		n := PredictorName(k)
		if n == name {
			return k, nil
		}
		valid = append(valid, n)
	}
	return 0, fmt.Errorf("unknown predictor %q (use %s): %w", name, orList(valid), ErrOutOfDomain)
}

// PredictorName is the inverse of PredictorByName: the short spelling
// for the Table 2 predictors, the String form for the rest.
func PredictorName(k PredictorKind) string {
	switch k {
	case PredGShare1KB:
		return "gshare"
	case PredHybrid3_5KB:
		return "hybrid"
	}
	return k.String()
}

// Table2Config builds a design point from base, rejecting any
// parameter outside the paper's Table 2 domain with a descriptive
// error. It is a thin wrapper over Table2Domain().Apply — the shared
// validator behind cmd/inorder-model's flags and the service's request
// decoding.
func Table2Config(base Config, width, stages, l2kb, l2ways int, pred string) (Config, error) {
	d := Table2Domain()
	pt, err := d.PointOfValues(
		strconv.Itoa(stages), strconv.Itoa(width),
		strconv.Itoa(l2kb), strconv.Itoa(l2ways), pred)
	if err != nil {
		return Config{}, err
	}
	return d.Apply(base, pt)
}
