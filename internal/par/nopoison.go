//go:build !malpoison

package par

// poisonRecycled is off in the default build: recycled slices keep
// whatever they held (see poison.go).
const poisonRecycled = false
