package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
)

// Encoded-segment persistence: checkpoints must write slab-encoded
// columns (RLE/dict/FOR/delta) to the segment store and reload them
// byte-faithfully — same slab encodings, same payload sizes, same values —
// and WAL replay, crash truncation and re-encoding must all compose with
// the encoded store.

// buildEncDB populates dir with multi-slab encodable data: an array whose
// attributes RLE- and delta-encode (three 64K slabs each) and a table
// whose int and string columns dictionary-encode.
func buildEncDB(t *testing.T, dir string, o OpenOptions) *DB {
	t.Helper()
	db, err := OpenDB(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE ARRAY big (t INT DIMENSION[0:1:150000], v INT DEFAULT 0, w INT DEFAULT 0)`)
	n := 150_000
	runs := make([]int64, n) // long constant runs -> RLE
	asc := make([]int64, n)  // ascending small gaps -> delta
	for i := range runs {
		runs[i] = int64(i / 500)
		asc[i] = int64(i)*3 + int64(i%2)
	}
	if err := db.BulkSetAttrInts("big", "v", runs); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkSetAttrInts("big", "w", asc); err != nil {
		t.Fatal(err)
	}

	db.MustQuery(`CREATE TABLE tags (a INT, s VARCHAR)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO tags VALUES `)
	for i := 0; i < 4096; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'tag-%d')", (i%7)*100, i%3)
	}
	db.MustQuery(sb.String())
	return db
}

// attrBat digs the live BAT of one array attribute out of the catalog.
func attrBat(t *testing.T, db *DB, array, attr string) *bat.BAT {
	t.Helper()
	a, ok := db.Catalog().Array(array)
	if !ok {
		t.Fatalf("array %s missing", array)
	}
	ai, ok := a.AttrIndex(attr)
	if !ok {
		t.Fatalf("attribute %s missing", attr)
	}
	return a.AttrBats[ai]
}

func encNames(b *bat.BAT) []string {
	var out []string
	for _, e := range b.SlabEncodings() {
		out = append(out, e.String())
	}
	return out
}

func TestEncodedCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := buildEncDB(t, dir, OpenOptions{})
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint installs the encoded form it persisted.
	type colWant struct {
		encs  []string
		bytes int64
	}
	want := map[string]colWant{}
	for _, c := range []struct {
		name string
		b    *bat.BAT
		enc  string
	}{
		{"big.v", attrBat(t, db, "big", "v"), "rle"},
		{"big.w", attrBat(t, db, "big", "w"), "delta"},
		{"tags.a", tableCol(t, db, "tags", 0), "for"},
		{"tags.s", tableCol(t, db, "tags", 1), "dict"},
	} {
		if !c.b.Encoded() {
			t.Fatalf("%s not encoded after checkpoint", c.name)
		}
		encs := encNames(c.b)
		found := false
		for _, e := range encs {
			if e == c.enc {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s slabs %v, want at least one %q slab", c.name, encs, c.enc)
		}
		if c.b.EncodedBytes()*2 > c.b.LogicalBytes() {
			t.Fatalf("%s encoded %d bytes of %d logical: below the 2x win gate",
				c.name, c.b.EncodedBytes(), c.b.LogicalBytes())
		}
		want[c.name] = colWant{encs: encs, bytes: c.b.EncodedBytes()}
	}
	wantV, _, err := db.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	wantW, _, err := db.ReadAttrInts("big", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload: identical slab encodings, payload sizes and values.
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for name, w := range want {
		var b *bat.BAT
		switch name {
		case "big.v":
			b = attrBat(t, db2, "big", "v")
		case "big.w":
			b = attrBat(t, db2, "big", "w")
		case "tags.a":
			b = tableCol(t, db2, "tags", 0)
		case "tags.s":
			b = tableCol(t, db2, "tags", 1)
		}
		if !b.Encoded() {
			t.Fatalf("%s lost its encoding across reload", name)
		}
		got := encNames(b)
		if fmt.Sprint(got) != fmt.Sprint(w.encs) {
			t.Fatalf("%s slab encodings %v after reload, want %v", name, got, w.encs)
		}
		if b.EncodedBytes() != w.bytes {
			t.Fatalf("%s encoded size %d after reload, want %d (round-trip not byte-faithful)",
				name, b.EncodedBytes(), w.bytes)
		}
	}
	gotV, _, err := db2.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	gotW, _, err := db2.ReadAttrInts("big", "w")
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantV {
		if gotV[i] != wantV[i] || gotW[i] != wantW[i] {
			t.Fatalf("cell %d = (%d,%d) after reload, want (%d,%d)", i, gotV[i], gotW[i], wantV[i], wantW[i])
		}
	}
	r := db2.MustQuery(`SELECT COUNT(*), SUM(a) FROM tags`)
	cnt, _ := r.Value(0, 0).AsInt()
	sum, _ := r.Value(0, 1).AsInt()
	// 4096 rows cycling 0,100,...,600: 585 full cycles (sum 2100 each)
	// plus one leftover 0.
	if cnt != 4096 || sum != 585*2100 {
		t.Fatalf("reloaded tags COUNT=%d SUM=%d, want 4096/%d", cnt, sum, 585*2100)
	}
}

// TestEncodedManifestDescriptors pins the manifest v3 format: the
// checkpoint manifest carries per-column encoding descriptors next to the
// authoritative segment files.
func TestEncodedManifestDescriptors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := buildEncDB(t, dir, OpenOptions{})
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	raw, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Version int `json:"version"`
		Tables  []struct {
			Name    string `json:"name"`
			Columns []struct {
				Name         string   `json:"name"`
				Encodings    []string `json:"encodings"`
				EncodedBytes int64    `json:"encoded_bytes"`
				LogicalBytes int64    `json:"logical_bytes"`
			} `json:"columns"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 {
		t.Fatalf("manifest version %d, want 3", m.Version)
	}
	found := false
	for _, tb := range m.Tables {
		if tb.Name != "tags" {
			continue
		}
		for _, c := range tb.Columns {
			if c.Name != "s" {
				continue
			}
			found = true
			if len(c.Encodings) == 0 || c.Encodings[0] != "dict" {
				t.Fatalf("tags.s manifest encodings %v, want [dict]", c.Encodings)
			}
			if c.EncodedBytes <= 0 || c.EncodedBytes >= c.LogicalBytes {
				t.Fatalf("tags.s manifest sizes encoded=%d logical=%d", c.EncodedBytes, c.LogicalBytes)
			}
		}
	}
	if !found {
		t.Fatal("tags.s missing from manifest")
	}
}

// TestEncodedWALReplay recovers a crash image whose segment store is
// encoded and whose WAL tail mutates the encoded columns (the replay path
// must transparently decode before applying DML).
func TestEncodedWALReplay(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db := buildEncDB(t, dir, OpenOptions{})
	if err := db.Save(); err != nil { // encoded segments on disk
		t.Fatal(err)
	}
	db.MustQuery(`INSERT INTO tags VALUES (9999, 'late')`)
	db.MustQuery(`UPDATE tags SET a = -1 WHERE a = 600`)
	db.MustQuery(`UPDATE big SET v = 7 WHERE t < 10`)
	// No Close: crash. Recovery replays the tail over the encoded store.

	image := filepath.Join(root, "crash-image")
	copyTree(t, dir, image)
	db2, err := OpenDB(image, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT COUNT(*), SUM(a) FROM tags WHERE a = -1`)
	cnt, _ := r.Value(0, 0).AsInt()
	if cnt != 585 {
		t.Fatalf("replayed UPDATE hit %d rows, want 585", cnt)
	}
	r = db2.MustQuery(`SELECT COUNT(*) FROM tags`)
	if cnt, _ = r.Value(0, 0).AsInt(); cnt != 4097 {
		t.Fatalf("replayed INSERT lost: COUNT=%d, want 4097", cnt)
	}
	v, _, err := db2.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v[i] != 7 {
			t.Fatalf("replayed array UPDATE lost at cell %d: %d, want 7", i, v[i])
		}
	}
	if v[600*500/500] == 7 && v[600] != 1 {
		t.Fatalf("replay overreached: cell 600 = %d", v[600])
	}
}

// TestEncodedCrashTruncation cuts the WAL tail over an encoded base at
// every 11th byte: recovery must land exactly on a committed prefix, with
// the encoded segments intact underneath.
func TestEncodedCrashTruncation(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db := buildEncDB(t, dir, OpenOptions{CheckpointBytes: -1}) // keep the tail in the log
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	probe := func(d *DB) string {
		var sb strings.Builder
		for _, q := range []string{
			`SELECT COUNT(*), SUM(a) FROM tags`,
			`SELECT COUNT(*) FROM tags WHERE s = 'late'`,
		} {
			r, err := d.Query(q)
			if err != nil {
				sb.WriteString("err: " + err.Error() + "\n")
				continue
			}
			sb.WriteString(r.String())
		}
		return sb.String()
	}

	boundaries := []int64{db.WALSize()}
	expected := map[int64]string{db.WALSize(): probe(db)}
	for _, stmt := range []string{
		`INSERT INTO tags VALUES (1, 'late')`,
		`UPDATE tags SET a = a + 1 WHERE a >= 500`,
		`DELETE FROM tags WHERE a = 101`,
		`BEGIN; INSERT INTO tags VALUES (2, 'late'); INSERT INTO tags VALUES (3, 'late'); COMMIT`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		sz := db.WALSize()
		boundaries = append(boundaries, sz)
		expected[sz] = probe(db)
	}
	image := filepath.Join(root, "crash-image")
	copyTree(t, dir, image)

	full := boundaries[len(boundaries)-1]
	work := filepath.Join(t.TempDir(), "work")
	for cut := boundaries[0]; cut <= full; cut += 11 {
		os.RemoveAll(work)
		copyTree(t, image, work)
		if err := os.Truncate(filepath.Join(work, "wal.log"), cut); err != nil {
			t.Fatal(err)
		}
		rdb, err := OpenDB(work, OpenOptions{})
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		got := probe(rdb)
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
		want := stateAt(cut, boundaries, expected)
		if got != want {
			t.Fatalf("cut at %d: recovered state diverges\n--- got ---\n%s\n--- want ---\n%s", cut, got, want)
		}
	}
	db.Close()
}

// TestEncodedUpgradeFromPlain: encoding is chosen per slab from the data.
// Incompressible values checkpoint and reload as plain segments; once an
// update makes the column compressible, its next checkpoint rewrites the
// segments encoded, and they reload encoded with the right values.
func TestEncodedUpgradeFromPlain(t *testing.T) {
	const n = 150_000 // three 64K slabs
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY big (t INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, n))
	rng := rand.New(rand.NewSource(7))
	noise := make([]int64, n)
	for i := range noise {
		noise[i] = rng.Int63()
	}
	if err := db.BulkSetAttrInts("big", "v", noise); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if b := attrBat(t, db, "big", "v"); b.Encoded() {
		t.Fatalf("random values checkpointed encoded: %v", encNames(b))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b := attrBat(t, db2, "big", "v"); b.Encoded() {
		t.Fatal("plain checkpoint reloaded as encoded")
	}
	v, _, err := db2.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v, noise) {
		t.Fatal("plain reload changed the values")
	}

	// The next checkpoint of the dirty object rewrites its segments, and
	// a constant column encodes.
	db2.MustQuery(`UPDATE big SET v = 123`)
	if err := db2.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if b := attrBat(t, db3, "big", "v"); !b.Encoded() {
		t.Fatal("constant column reloaded plain")
	}
	v, _, err = db3.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != n || slices.ContainsFunc(v, func(x int64) bool { return x != 123 }) {
		t.Fatal("encoded reload lost the update")
	}
}
