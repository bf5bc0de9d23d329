package baseline

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/scenarios"
	"repro/internal/vault"
)

// The paper's two comparisons against plain relational storage, each
// beside its SciQL twin: Scenario 1's Game of Life as structural grouping
// vs the eight-way self-join SciQL replaces (§4), and Scenario 2's region
// extraction from an array vs from a BLOB. They report numbers only.

// lifeSizes are the board sizes the Game of Life strategies compete on.
var lifeSizes = []int{16, 32, 64}

// stepper is one Game of Life strategy.
type stepper interface {
	Seed(cells [][2]int) error
	Step() error
}

func benchLife(b *testing.B, build func(db *core.DB, n int) (stepper, error)) {
	for _, n := range lifeSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			life, err := build(core.New(), n)
			if err != nil {
				b.Fatal(err)
			}
			if err := life.Seed(scenarios.Glider(1, 1)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := life.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenario1_LifeSciQL: one generation as a single structural-
// grouping query (the paper's approach).
func BenchmarkScenario1_LifeSciQL(b *testing.B) {
	benchLife(b, func(db *core.DB, n int) (stepper, error) { return scenarios.NewLife(db, "life", n, n) })
}

// BenchmarkScenario1_LifeSQLSelfJoin: the same generation via the
// eight-way relational self-join.
func BenchmarkScenario1_LifeSQLSelfJoin(b *testing.B) {
	benchLife(b, func(db *core.DB, n int) (stepper, error) { return NewSQLLife(db, "life", n, n) })
}

// regionImageSize is the side of the Scenario 2 region benchmarks' image.
const regionImageSize = 256

// BenchmarkScenario2_RegionArray extracts a 32x32 region through the
// array path: one WHERE over the dimensions.
func BenchmarkScenario2_RegionArray(b *testing.B) {
	db := core.New()
	if err := vault.LoadImage(db, "img", img.RemoteSensing(regionImageSize, regionImageSize, 7)); err != nil {
		b.Fatal(err)
	}
	q := `SELECT [x], [y], v FROM img WHERE x >= 100 AND x < 132 AND y >= 100 AND y < 132`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario2_RegionBLOB extracts the same region under BLOB
// storage: fetch the whole value, decode, crop client-side.
func BenchmarkScenario2_RegionBLOB(b *testing.B) {
	bs, err := NewBlobStore(core.New())
	if err != nil {
		b.Fatal(err)
	}
	if err := bs.Store("img", img.RemoteSensing(regionImageSize, regionImageSize, 7)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Region("img", 100, 100, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}
