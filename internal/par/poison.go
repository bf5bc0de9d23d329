//go:build malpoison

package par

// poisonRecycled: this build poisons every slice the free list hands out
// or takes back (see poison), so a kernel that reads an element before
// writing it, or a recycled slice a live column still shares, changes
// results. Run the suites with -tags malpoison.
const poisonRecycled = true
