package rel

import (
	"testing"
)

// starGraph is a synthetic flattened star: leaf 0 is the fact relation,
// the others are dimensions joined to it.
func starGraph(factRows float64, dimRows ...float64) *jgraph {
	g := &jgraph{}
	g.leaves = append(g.leaves, jleaf{rows: factRows})
	for i, r := range dimRows {
		g.leaves = append(g.leaves, jleaf{rows: r})
		g.preds = append(g.preds, jpred{
			lrels: 1,
			rrels: 1 << uint(i+1),
			ndv:   r, // dimension key unique: every fact row matches once
		})
	}
	return g
}

func TestGreedyStartsFromSmallestRelation(t *testing.T) {
	// Fact 1e6 rows; dims 1000, 5, 40 rows.
	g := starGraph(1e6, 1000, 5, 40)
	order := g.orderGreedy()
	if order[0] != 2 {
		t.Fatalf("greedy started at leaf %d (rows %v), want the 5-row dimension (leaf 2); order %v",
			order[0], g.leaves[order[0]].rows, order)
	}
	checkPermutation(t, order, len(g.leaves))
}

func TestGreedyPrefersConnectedOverCross(t *testing.T) {
	// Chain 0—1—2: from the middle leaf, the unconnected end would give a
	// smaller cross product than either connected join, but greedy must
	// still follow an edge.
	g := &jgraph{
		leaves: []jleaf{{rows: 100}, {rows: 1}, {rows: 100}},
		preds: []jpred{
			{lrels: 1 << 0, rrels: 1 << 1, ndv: 100},
			{lrels: 1 << 1, rrels: 1 << 2, ndv: 100},
		},
	}
	order := g.orderGreedy()
	if order[0] != 1 {
		t.Fatalf("greedy should start at the 1-row middle leaf, got %v", order)
	}
	checkPermutation(t, order, 3)
	// Both remaining picks are connected to the middle: no cross step.
	mask := uint64(1) << uint(order[0])
	for _, r := range order[1:] {
		if !g.connected(mask, r) {
			t.Fatalf("greedy chose a cross product at leaf %d (order %v)", r, order)
		}
		mask |= 1 << uint(r)
	}
}

func TestEstRowsEmptyCandSelect(t *testing.T) {
	if got := EstRows(&CandSelect{Child: &ScanDual{}, Empty: true}); got != 0 {
		t.Fatalf("provably-empty CandSelect estimates %v rows, want 0", got)
	}
	if got := EstRows(&ScanDual{}); got != 1 {
		t.Fatalf("dual estimates %v rows, want 1", got)
	}
}

func TestGreedyPlacesEmptyRelationFirst(t *testing.T) {
	// The largest relation carries a provably-empty filter: with its
	// estimate forced to zero it must be joined first, so the emptycand
	// fold short-circuits the whole tree.
	g := starGraph(1e6, 1000, 40)
	g.leaves[0].rows = 0 // the fact's filter is provably empty
	order := g.orderGreedy()
	if order[0] != 0 {
		t.Fatalf("empty relation not placed first: %v", order)
	}
}

func checkPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order %v has %d entries, want %d", order, len(order), n)
	}
	seen := make([]bool, n)
	for _, r := range order {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[r] = true
	}
}
