package repl

import (
	"path/filepath"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
)

// Replication over an encoded store: the bootstrap snapshot ships
// slab-encoded segment files verbatim, so a fresh replica must come up
// with the same encoded columns the primary holds — and WAL catch-up over
// that encoded base must apply cleanly.

func encAttrBat(t *testing.T, db *core.DB, array, attr string) *bat.BAT {
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

func TestReplicaBootstrapEncodedSegments(t *testing.T) {
	primaryDB, paddr, pc := startPrimary(t, -1)

	// Multi-slab RLE-encodable attribute, checkpointed before the replica
	// exists: bootstrap must ship the encoded segments.
	if _, err := pc.Exec(`CREATE ARRAY big (t INT DIMENSION[0:1:150000], v INT DEFAULT 0)`); err != nil {
		t.Fatal(err)
	}
	n := 150_000
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i / 500)
	}
	if err := primaryDB.BulkSetAttrInts("big", "v", data); err != nil {
		t.Fatal(err)
	}
	if err := primaryDB.Save(); err != nil {
		t.Fatal(err)
	}
	pb := encAttrBat(t, primaryDB, "big", "v")
	if !pb.Encoded() {
		t.Fatal("primary checkpoint did not encode big.v; bootstrap test is vacuous")
	}

	// Post-checkpoint tail the replica must also catch up on. It must not
	// touch big: a mutation would (correctly) decode the column on both
	// sides before the encoding assertions below.
	if _, err := pc.Exec(`CREATE TABLE note (k INT); INSERT INTO note VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	rdir := filepath.Join(t.TempDir(), "replica")
	tl := startTailer(t, paddr, rdir)
	waitCaughtUp(t, tl, primaryDB)
	if st := tl.ReplStatus(); st.Bootstraps == 0 {
		t.Fatal("replica joined a checkpointed primary without bootstrapping")
	}

	rb := encAttrBat(t, tl.DB(), "big", "v")
	if !rb.Encoded() {
		t.Fatal("replica bootstrap lost the slab encoding")
	}
	if got, want := rb.EncodedBytes(), pb.EncodedBytes(); got != want {
		t.Fatalf("replica encoded size %d, primary %d (snapshot not byte-faithful)", got, want)
	}
	gotEnc, wantEnc := rb.SlabEncodings(), pb.SlabEncodings()
	for i := range wantEnc {
		if gotEnc[i] != wantEnc[i] {
			t.Fatalf("slab %d encoding %v on replica, %v on primary", i, gotEnc[i], wantEnc[i])
		}
	}

	// Now mutate the encoded column through the stream: the replica's
	// apply path must transparently decode before applying.
	if _, err := pc.Exec(`UPDATE big SET v = -5 WHERE t = 42`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, tl, primaryDB)
	want, _, err := primaryDB.ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tl.DB().ReadAttrInts("big", "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %d on replica, %d on primary", i, got[i], want[i])
		}
	}
	if got[42] != -5 {
		t.Fatalf("replayed tail UPDATE missing on replica: cell 42 = %d, want -5", got[42])
	}
}
