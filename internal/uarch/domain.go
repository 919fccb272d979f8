package uarch

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// This file is the typed parameter-domain subsystem: a Domain is a
// named, ordered list of typed axes (integer enums, float enums, keyed
// variants like the predictor or the depth/frequency pairing) plus
// cross-axis constraints. It subsumes the hard-wired Table 2 lists —
// Table2Config is now a thin wrapper over Table2Domain() — and is what
// lets the design-space exploration scale past the paper's 192 points:
// dse.Space enumerates from a Domain, dse.Search walks its index
// space, and the CLI flags and service request decoding validate
// against the same axis definitions.
//
// A design point is identified three interchangeable ways, all
// deterministic:
//
//   - Point: one value index per axis, in axis order;
//   - index: the mixed-radix encoding of the Point over the axis
//     cardinalities, last axis fastest (so enumeration order matches
//     the paper's nested Table 2 loops);
//   - name: the joined per-value name fragments ("d5-w1-l2_512k_8w-
//     gshare-1KB"), parseable back to the Point.

// ErrOutOfDomain is wrapped by every rejection of a value, point,
// index or name that lies outside a domain: out-of-range axis values,
// unknown spellings, indices past the grid, and cross-axis constraint
// violations all satisfy errors.Is(err, ErrOutOfDomain).
var ErrOutOfDomain = errors.New("out of domain")

// AxisKind is the value type of one axis.
type AxisKind uint8

const (
	// AxisInt enumerates integer values (widths, sizes, ways).
	AxisInt AxisKind = iota
	// AxisFloat enumerates float values (frequency scale factors).
	AxisFloat
	// AxisVariant enumerates keyed variants: each value is a named
	// alternative carrying structured configuration (a predictor kind,
	// a depth/frequency pairing).
	AxisVariant
)

// Axis is one named, typed parameter of a Domain. Axes are immutable
// after construction; build them with IntAxis, FloatAxis or
// VariantAxis.
type Axis struct {
	// Name is the request spelling: the CLI flag, query parameter and
	// search-space identifier of the axis ("width", "l2kb", "pred").
	Name string
	// Label is the human noun used in error messages ("L2 size"); it
	// defaults to Name.
	Label string
	// Unit suffixes the value in error messages (" KB", " ways").
	Unit string
	// Sep separates this axis's name fragment from the previous one in
	// a point name; it defaults to "-" ("_" glues the L2 ways onto the
	// L2 size, preserving the historical l2_512k_8w spelling).
	Sep string

	kind   AxisKind
	ints   []int
	floats []float64
	keys   []string // request spelling per value (variant axes)
	frags  []string // name fragment per value
	apply  func(Config, int) Config
}

// IntAxis builds an integer-enum axis. frag formats one value into its
// point-name fragment ("w%d"); apply applies the i-th value to a
// configuration.
func IntAxis(name string, values []int, frag string, apply func(Config, int) Config) Axis {
	a := Axis{Name: name, kind: AxisInt, ints: values, apply: apply}
	for _, v := range values {
		a.frags = append(a.frags, fmt.Sprintf(frag, v))
	}
	return a
}

// FloatAxis builds a float-enum axis. Fragments are prefix plus the
// shortest exact decimal form of the value ("f1.2").
func FloatAxis(name string, values []float64, fragPrefix string, apply func(Config, int) Config) Axis {
	a := Axis{Name: name, kind: AxisFloat, floats: values, apply: apply}
	for _, v := range values {
		a.frags = append(a.frags, fragPrefix+strconv.FormatFloat(v, 'g', -1, 64))
	}
	return a
}

// VariantAxis builds a keyed-variant axis: keys are the request
// spellings ("gshare"), frags the point-name fragments ("gshare-1KB");
// both must be unique within the axis and index-aligned.
func VariantAxis(name string, keys, frags []string, apply func(Config, int) Config) Axis {
	if len(keys) != len(frags) {
		panic("uarch: variant axis keys and fragments must align")
	}
	return Axis{Name: name, kind: AxisVariant, keys: keys, frags: frags, apply: apply}
}

// Kind returns the axis's value type.
func (a *Axis) Kind() AxisKind { return a.kind }

// Card returns the number of values on the axis.
func (a *Axis) Card() int {
	switch a.kind {
	case AxisInt:
		return len(a.ints)
	case AxisFloat:
		return len(a.floats)
	}
	return len(a.keys)
}

// Int returns the i-th integer value of an AxisInt axis.
func (a *Axis) Int(i int) int { return a.ints[i] }

// Float returns the i-th float value of an AxisFloat axis.
func (a *Axis) Float(i int) float64 { return a.floats[i] }

// Value returns the request spelling of the i-th value: the decimal
// integer, the shortest float form, or the variant key.
func (a *Axis) Value(i int) string {
	switch a.kind {
	case AxisInt:
		return strconv.Itoa(a.ints[i])
	case AxisFloat:
		return strconv.FormatFloat(a.floats[i], 'g', -1, 64)
	}
	return a.keys[i]
}

// Values returns the request spellings of every value, in index order.
func (a *Axis) Values() []string {
	out := make([]string, a.Card())
	for i := range out {
		out[i] = a.Value(i)
	}
	return out
}

// label returns the error-message noun.
func (a *Axis) label() string {
	if a.Label != "" {
		return a.Label
	}
	return a.Name
}

// errValue builds the canonical out-of-domain rejection for a value
// spelling, listing the valid values dynamically.
func (a *Axis) errValue(v string) error {
	return fmt.Errorf("unsupported %s %s%s (use %s): %w",
		a.label(), v, a.Unit, orList(a.Values()), ErrOutOfDomain)
}

// IndexOfValue resolves a request spelling to its value index,
// validating it against the axis (the per-axis validation the CLI and
// service decoders share). The error wraps ErrOutOfDomain and lists
// the valid spellings dynamically.
func (a *Axis) IndexOfValue(v string) (int, error) {
	for i, n := 0, a.Card(); i < n; i++ {
		if a.Value(i) == v {
			return i, nil
		}
	}
	// Integer spellings normalize ("04" means 4) so the axis accepts
	// exactly the values it enumerates, under any valid spelling.
	if a.kind == AxisInt {
		if x, err := strconv.Atoi(v); err == nil {
			for i, val := range a.ints {
				if val == x {
					return i, nil
				}
			}
		}
	}
	if a.kind == AxisFloat {
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			for i, val := range a.floats {
				if val == x {
					return i, nil
				}
			}
		}
	}
	return 0, a.errValue(v)
}

// orList renders a value list as "a, b or c" for error messages.
func orList(vals []string) string {
	switch len(vals) {
	case 0:
		return "(nothing)"
	case 1:
		return vals[0]
	}
	return strings.Join(vals[:len(vals)-1], ", ") + " or " + vals[len(vals)-1]
}

// Constraint is a cross-axis restriction of a Domain: a point is valid
// only when every constraint accepts it.
type Constraint struct {
	// Desc names the restriction in rejections ("overdrive frequency
	// scaling requires at least 7 pipeline stages").
	Desc string
	// Ok reports whether the point satisfies the restriction.
	Ok func(pt Point) bool
}

// Point selects one value index per axis, in axis order.
type Point []int

// Clone returns an independent copy of the point.
func (p Point) Clone() Point { return append(Point(nil), p...) }

// Domain is a typed parameter space: ordered axes plus cross-axis
// constraints. Domains are immutable after construction and safe for
// concurrent use.
type Domain struct {
	// Name identifies the domain to the CLIs and the service
	// ("table2", "extended").
	Name string
	// Desc is a one-line description for listings.
	Desc string

	axes        []Axis
	constraints []Constraint
	grid        int64 // product of axis cardinalities
	card        int64 // valid (constraint-satisfying) points
}

// NewDomain builds a Domain, precomputing its grid size and valid
// cardinality. It panics on an empty or zero-cardinality axis list —
// domains are built at package init from literal axis tables.
func NewDomain(name, desc string, axes []Axis, constraints []Constraint) *Domain {
	d := &Domain{Name: name, Desc: desc, axes: axes, constraints: constraints, grid: 1}
	if len(axes) == 0 {
		panic("uarch: domain with no axes")
	}
	for i := range axes {
		if axes[i].Card() == 0 {
			panic(fmt.Sprintf("uarch: domain %s axis %s has no values", name, axes[i].Name))
		}
		if axes[i].Sep == "" {
			axes[i].Sep = "-"
		}
		d.grid *= int64(axes[i].Card())
	}
	if len(constraints) == 0 {
		d.card = d.grid
		return d
	}
	pt := make(Point, len(axes))
	for idx := int64(0); idx < d.grid; idx++ {
		d.pointAtGrid(idx, pt)
		if d.constraintOf(pt) == nil {
			d.card++
		}
	}
	return d
}

// Axes returns the axes in order. The slice is shared; treat it as
// read-only.
func (d *Domain) Axes() []Axis { return d.axes }

// AxisByName returns the axis with the given request name and its
// position, or false.
func (d *Domain) AxisByName(name string) (*Axis, int, bool) {
	for i := range d.axes {
		if d.axes[i].Name == name {
			return &d.axes[i], i, true
		}
	}
	return nil, 0, false
}

// GridSize returns the full index-grid size: the product of the axis
// cardinalities, counting constraint-violating points.
func (d *Domain) GridSize() int64 { return d.grid }

// Cardinality returns the number of valid design points: grid points
// that satisfy every cross-axis constraint.
func (d *Domain) Cardinality() int64 { return d.card }

// constraintOf returns the first violated constraint as an error.
func (d *Domain) constraintOf(pt Point) error {
	for i := range d.constraints {
		if !d.constraints[i].Ok(pt) {
			return fmt.Errorf("point %v violates constraint: %s: %w", []int(pt), d.constraints[i].Desc, ErrOutOfDomain)
		}
	}
	return nil
}

// Validate checks the point: correct arity, every axis index in
// range, every cross-axis constraint satisfied. All rejections wrap
// ErrOutOfDomain.
func (d *Domain) Validate(pt Point) error {
	if len(pt) != len(d.axes) {
		return fmt.Errorf("domain %s: point has %d axes, want %d: %w", d.Name, len(pt), len(d.axes), ErrOutOfDomain)
	}
	for i := range d.axes {
		if pt[i] < 0 || pt[i] >= d.axes[i].Card() {
			return fmt.Errorf("domain %s: axis %s index %d out of [0,%d): %w",
				d.Name, d.axes[i].Name, pt[i], d.axes[i].Card(), ErrOutOfDomain)
		}
	}
	return d.constraintOf(pt)
}

// PointIndex returns the mixed-radix index of a valid point: axis 0 is
// the most significant digit, the last axis the fastest-varying — the
// same order as the paper's nested Table 2 enumeration loops.
func (d *Domain) PointIndex(pt Point) (int64, error) {
	if err := d.Validate(pt); err != nil {
		return 0, err
	}
	var idx int64
	for i := range d.axes {
		idx = idx*int64(d.axes[i].Card()) + int64(pt[i])
	}
	return idx, nil
}

// pointAtGrid decodes a grid index into dst without validation.
func (d *Domain) pointAtGrid(idx int64, dst Point) {
	for i := len(d.axes) - 1; i >= 0; i-- {
		c := int64(d.axes[i].Card())
		dst[i] = int(idx % c)
		idx /= c
	}
}

// PointAt decodes an index into its point, rejecting indices outside
// the grid and points violating a cross-axis constraint (both wrap
// ErrOutOfDomain).
func (d *Domain) PointAt(idx int64) (Point, error) {
	if idx < 0 || idx >= d.grid {
		return nil, fmt.Errorf("domain %s: index %d out of [0,%d): %w", d.Name, idx, d.grid, ErrOutOfDomain)
	}
	pt := make(Point, len(d.axes))
	d.pointAtGrid(idx, pt)
	if err := d.constraintOf(pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// PointName renders the deterministic name of a valid point: the axis
// fragments joined by each axis's separator ("d5-w1-l2_512k_8w-
// gshare-1KB").
func (d *Domain) PointName(pt Point) (string, error) {
	if err := d.Validate(pt); err != nil {
		return "", err
	}
	var b strings.Builder
	for i := range d.axes {
		if i > 0 {
			b.WriteString(d.axes[i].Sep)
		}
		b.WriteString(d.axes[i].frags[pt[i]])
	}
	return b.String(), nil
}

// ParsePoint is the inverse of PointName: it decodes a point name by
// matching each axis's fragments in order (fragments may themselves
// contain separators — "gshare-1KB" — so the match is positional, not
// split-based). Unknown fragments and trailing garbage wrap
// ErrOutOfDomain.
func (d *Domain) ParsePoint(name string) (Point, error) {
	rest := name
	pt := make(Point, len(d.axes))
	for i := range d.axes {
		if i > 0 {
			if !strings.HasPrefix(rest, d.axes[i].Sep) {
				return nil, fmt.Errorf("domain %s: name %q: expected %q before axis %s: %w",
					d.Name, name, d.axes[i].Sep, d.axes[i].Name, ErrOutOfDomain)
			}
			rest = rest[len(d.axes[i].Sep):]
		}
		match := -1
		for v, frag := range d.axes[i].frags {
			if strings.HasPrefix(rest, frag) && (match < 0 || len(frag) > len(d.axes[i].frags[match])) {
				match = v
			}
		}
		if match < 0 {
			return nil, fmt.Errorf("domain %s: name %q: no %s value matches at %q: %w",
				d.Name, name, d.axes[i].Name, rest, ErrOutOfDomain)
		}
		pt[i] = match
		rest = rest[len(d.axes[i].frags[match]):]
	}
	if rest != "" {
		return nil, fmt.Errorf("domain %s: name %q: trailing %q after last axis: %w",
			d.Name, name, rest, ErrOutOfDomain)
	}
	if err := d.constraintOf(pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// Apply builds the design point's configuration from base: the point
// is validated (per-axis ranges plus cross-axis constraints), each
// axis's value is applied in order, the point's deterministic name is
// stamped, and the resulting configuration is itself validated.
func (d *Domain) Apply(base Config, pt Point) (Config, error) {
	if err := d.Validate(pt); err != nil {
		return Config{}, err
	}
	cfg := base
	for i := range d.axes {
		cfg = d.axes[i].apply(cfg, pt[i])
	}
	name, err := d.PointName(pt)
	if err != nil {
		return Config{}, err
	}
	cfg.Name = name
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// PointOfValues resolves one request spelling per axis (in axis order)
// to a point — the shared decoding behind Table2Config and the
// service's single-point parameters.
func (d *Domain) PointOfValues(vals ...string) (Point, error) {
	if len(vals) != len(d.axes) {
		return nil, fmt.Errorf("domain %s: %d values for %d axes: %w", d.Name, len(vals), len(d.axes), ErrOutOfDomain)
	}
	pt := make(Point, len(d.axes))
	for i := range d.axes {
		v, err := d.axes[i].IndexOfValue(vals[i])
		if err != nil {
			return nil, err
		}
		pt[i] = v
	}
	if err := d.constraintOf(pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// EnumeratePoints returns every valid point in index order.
func (d *Domain) EnumeratePoints() []Point {
	out := make([]Point, 0, d.card)
	pt := make(Point, len(d.axes))
	for idx := int64(0); idx < d.grid; idx++ {
		d.pointAtGrid(idx, pt)
		if d.constraintOf(pt) == nil {
			out = append(out, pt.Clone())
		}
	}
	return out
}

// Enumerate applies every valid point to base, in index order — the
// generalization of the Table 2 space enumeration.
func (d *Domain) Enumerate(base Config) ([]Config, error) {
	pts := d.EnumeratePoints()
	out := make([]Config, len(pts))
	for i, pt := range pts {
		cfg, err := d.Apply(base, pt)
		if err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// --- Built-in domains -------------------------------------------------

// depthAxis is the Table 2 depth/frequency pairing as a keyed variant:
// the request spelling is the stage count, the value carries the
// paired frequency.
func depthAxis() Axis {
	dfs := DepthFreqPoints()
	keys := make([]string, len(dfs))
	frags := make([]string, len(dfs))
	for i, df := range dfs {
		keys[i] = strconv.Itoa(df.Stages)
		frags[i] = fmt.Sprintf("d%d", df.Stages)
	}
	a := VariantAxis("stages", keys, frags, func(c Config, i int) Config {
		return c.WithDepth(DepthFreqPoints()[i])
	})
	a.Label = "stage count"
	return a
}

func widthAxis() Axis {
	return IntAxis("width", []int{1, 2, 3, 4}, "w%d", func(c Config, i int) Config {
		return c.WithWidth([]int{1, 2, 3, 4}[i])
	})
}

func l2SizeAxis() Axis {
	sizes := []int{128, 256, 512, 1024}
	a := IntAxis("l2kb", sizes, "l2_%dk", func(c Config, i int) Config {
		c.Hier.L2 = L2Config(sizes[i], c.Hier.L2.Ways)
		return c
	})
	a.Label = "L2 size"
	a.Unit = " KB"
	return a
}

func l2WaysAxis() Axis {
	ways := []int{8, 16}
	a := IntAxis("l2ways", ways, "%dw", func(c Config, i int) Config {
		c.Hier.L2.Ways = ways[i]
		return c
	})
	a.Label = "L2 associativity"
	a.Unit = " ways"
	a.Sep = "_" // historical l2_512k_8w spelling
	return a
}

func predAxis() Axis {
	kinds := Table2Predictors()
	keys := make([]string, len(kinds))
	frags := make([]string, len(kinds))
	for i, k := range kinds {
		keys[i] = PredictorName(k)
		frags[i] = k.String()
	}
	a := VariantAxis("pred", keys, frags, func(c Config, i int) Config {
		return c.WithPredictor(Table2Predictors()[i])
	})
	a.Label = "predictor"
	return a
}

var table2Domain = sync.OnceValue(func() *Domain {
	return NewDomain("table2",
		"the paper's Table 2 space: 3 depth/frequency settings × 4 widths × 4 L2 sizes × 2 L2 associativities × 2 predictors (192 points)",
		[]Axis{depthAxis(), widthAxis(), l2SizeAxis(), l2WaysAxis(), predAxis()},
		nil)
})

// Table2Domain returns the paper's Table 2 design space as a typed
// domain: 192 points whose enumeration order and names are exactly the
// historical dse.Space output.
func Table2Domain() *Domain { return table2Domain() }

var extendedDomain = sync.OnceValue(func() *Domain {
	l1Sizes := []int{16, 32, 64}
	l1Size := IntAxis("l1kb", l1Sizes, "l1_%dk", func(c Config, i int) Config {
		kb := l1Sizes[i]
		c.Hier.IL1.SizeBytes = int64(kb) * KB
		c.Hier.DL1.SizeBytes = int64(kb) * KB
		return c
	})
	l1Size.Label = "L1 size"
	l1Size.Unit = " KB"

	l1Ways := []int{2, 4}
	l1WaysAx := IntAxis("l1ways", l1Ways, "%dw", func(c Config, i int) Config {
		c.Hier.IL1.Ways = l1Ways[i]
		c.Hier.DL1.Ways = l1Ways[i]
		return c
	})
	l1WaysAx.Label = "L1 associativity"
	l1WaysAx.Unit = " ways"
	l1WaysAx.Sep = "_"

	fscales := []float64{0.8, 1.0, 1.2}
	fscale := FloatAxis("fscale", fscales, "f", func(c Config, i int) Config {
		c.FreqMHz = int(float64(float64(c.FreqMHz)*fscales[i]) + 0.5)
		return c
	})
	fscale.Label = "frequency scale"

	axes := []Axis{depthAxis(), widthAxis(), l2SizeAxis(), l2WaysAxis(), predAxis(), l1Size, l1WaysAx, fscale}
	constraints := []Constraint{{
		// The overdrive DVFS setting needs timing slack that the
		// shallow 5-stage pipeline does not have: scaling its 600 MHz
		// design past nominal is not a buildable point.
		Desc: "frequency scale above 1 requires at least 7 pipeline stages",
		Ok: func(pt Point) bool {
			return fscales[pt[7]] <= 1.0 || DepthFreqPoints()[pt[0]].Stages >= 7
		},
	}}
	return NewDomain("extended",
		"the Table 2 axes × 3 L1 sizes × 2 L1 associativities × 3 DVFS frequency scales (3072 valid points, 16× Table 2)",
		axes, constraints)
})

// ExtendedDomain returns the larger built-in exploration space: the
// Table 2 axes crossed with L1 geometries (16/32/64 KB, 2/4-way) and a
// DVFS frequency sweep (0.8×/1.0×/1.2× of each depth's paired
// frequency), with a cross-axis constraint forbidding overdrive on the
// 5-stage pipeline — 3072 valid points of a 3456-point grid, 16× the
// Table 2 cardinality. It exists to prove the exploration stack is not
// Table-2-shaped; exhaustive enumeration is already painful here and
// dse.Search is the intended way in.
func ExtendedDomain() *Domain { return extendedDomain() }

// domains is the built-in registry, in listing order.
var domains = sync.OnceValue(func() []*Domain {
	return []*Domain{Table2Domain(), ExtendedDomain()}
})

// Domains returns the built-in domains in listing order.
func Domains() []*Domain { return domains() }

// DomainNames returns the built-in domain names in listing order.
func DomainNames() []string {
	ds := Domains()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// DomainByName resolves a built-in domain; the rejection lists the
// valid names dynamically and wraps ErrOutOfDomain.
func DomainByName(name string) (*Domain, error) {
	for _, d := range Domains() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("unknown design space %q (use %s): %w", name, orList(DomainNames()), ErrOutOfDomain)
}
