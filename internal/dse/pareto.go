package dse

// The Pareto view of an explored space: the paper's §6.3 case study
// picks the single EDP-optimal point, but once the space grows past
// Table 2 the interesting output is the whole delay/EDP trade-off
// curve — the designs for which no other point is both faster and more
// energy-delay efficient.

// objectivesOf returns the two Pareto objectives of a point: run time
// in seconds and energy-delay product. Simulator numbers are used when
// ExploreValidatedCtx (or a validating search) filled them, model
// numbers otherwise.
func objectivesOf(p *Point) (delaySec, edp float64) {
	if p.Sim != nil {
		return p.SimSecs, p.SimEDP
	}
	return p.ModelSecs, p.ModelEDP
}

// dominates reports whether objective pair 1 Pareto-dominates pair 2:
// no worse in both objectives and strictly better in at least one.
func dominates(d1, e1, d2, e2 float64) bool {
	return d1 <= d2 && e1 <= e2 && (d1 < d2 || e1 < e2)
}

// ParetoFront returns the indices of the non-dominated points under
// (delay seconds, EDP) minimization, in ascending index order. Points
// exactly equal in both objectives do not dominate each other, so
// co-optimal duplicates all appear on the front — the output for a
// fixed point set is fully deterministic, which is what lets the
// search's recovered front be compared bit-for-bit against the
// exhaustive one.
func ParetoFront(pts []Point) []int {
	var front []int
	for i := range pts {
		di, ei := objectivesOf(&pts[i])
		dominated := false
		for j := range pts {
			if j == i {
				continue
			}
			dj, ej := objectivesOf(&pts[j])
			if dominates(dj, ej, di, ei) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}
