package core

import (
	"repro/internal/bat"
)

// Encoding observability: per-column compression state for /healthz and
// operator tooling. The numbers describe the in-memory columns, which —
// because checkpoints install the encoded form they persist and loads
// keep the encoded form they read — match the segment store for every
// column the catalog has checkpointed.

// ColumnEncoding summarises one column's physical storage.
type ColumnEncoding struct {
	Object string `json:"object"`
	Column string `json:"column"`
	// Slabs counts the column's 64K-row slabs per encoding name
	// ("plain", "rle", "dict", "for", "delta"). Plain (unencoded)
	// columns report all slabs as plain.
	Slabs        map[string]int `json:"slabs"`
	EncodedBytes int64          `json:"encoded_bytes"`
	LogicalBytes int64          `json:"logical_bytes"`
}

// EncodingStats aggregates the per-column mix with store-wide totals.
type EncodingStats struct {
	Columns      []ColumnEncoding `json:"columns,omitempty"`
	EncodedBytes int64            `json:"encoded_bytes"`
	LogicalBytes int64            `json:"logical_bytes"`
	// Ratio is LogicalBytes/EncodedBytes (1 when nothing is encoded or
	// the store is empty) — the store-wide compression factor.
	Ratio float64 `json:"ratio"`
}

func columnEncoding(obj, col string, b *bat.BAT) ColumnEncoding {
	ce := ColumnEncoding{
		Object:       obj,
		Column:       col,
		Slabs:        map[string]int{},
		EncodedBytes: b.EncodedBytes(),
		LogicalBytes: b.LogicalBytes(),
	}
	if encs := b.SlabEncodings(); encs != nil {
		for _, e := range encs {
			ce.Slabs[e.String()]++
		}
	} else if n := b.NumSlabs(); n > 0 {
		ce.Slabs[bat.EncPlain.String()] = n
	}
	return ce
}

// EncodingStats reports the per-column encoding mix and encoded-versus-
// logical sizes of the published snapshot.
func (db *DB) EncodingStats() EncodingStats {
	var st EncodingStats
	cat := db.view.Load()
	for _, name := range cat.TableNames() {
		t, _ := cat.Table(name)
		for i, c := range t.Columns {
			st.Columns = append(st.Columns, columnEncoding(t.Name, c.Name, t.Bats[i]))
		}
	}
	for _, name := range cat.ArrayNames() {
		a, _ := cat.Array(name)
		for i, c := range a.Attrs {
			st.Columns = append(st.Columns, columnEncoding(a.Name, c.Name, a.AttrBats[i]))
		}
	}
	for _, ce := range st.Columns {
		st.EncodedBytes += ce.EncodedBytes
		st.LogicalBytes += ce.LogicalBytes
	}
	st.Ratio = 1
	if st.EncodedBytes > 0 {
		st.Ratio = float64(st.LogicalBytes) / float64(st.EncodedBytes)
	}
	return st
}
