package metrics

// Point is a candidate configuration scored on two objectives where higher
// is better on both — in the paper's Fig. 3 the axes are utility (AUC) and
// individual fairness (yNN).
type Point struct {
	Utility  float64
	Fairness float64
}

// ParetoFront returns the indices of the non-dominated points, i.e. points
// for which no other point is at least as good on both objectives and
// strictly better on one. Indices are returned in their original order.
func ParetoFront(points []Point) []int {
	var front []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p) {
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

// dominates reports whether a is at least as good as b on both objectives
// and strictly better on at least one.
func dominates(a, b Point) bool {
	if a.Utility < b.Utility || a.Fairness < b.Fairness {
		return false
	}
	return a.Utility > b.Utility || a.Fairness > b.Fairness
}
