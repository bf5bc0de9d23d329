package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// openReplica opens a fresh replica database in its own directory.
func openReplica(t *testing.T, fsys vfs.FS) (*DB, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "replica")
	db, err := OpenDB(dir, OpenOptions{FS: fsys, Replica: true})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	return db, dir
}

// syncReplica streams the primary's log into the replica through the same
// chunk/frame/apply path the network tailer uses, until caught up.
func syncReplica(t *testing.T, primary, replica *DB) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("replica not catching up")
		}
		pos := replica.WALPosition()
		data, ppos, err := primary.ReadWALChunk(pos.Gen, pos.Offset, 512)
		if errors.Is(err, wal.ErrGenMismatch) {
			spos, files, serr := primary.ReplSnapshot()
			if serr != nil {
				t.Fatalf("snapshot: %v", serr)
			}
			if ierr := replica.InstallSnapshot(spos, files); ierr != nil {
				t.Fatalf("install: %v", ierr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("chunk at %+v: %v", pos, err)
		}
		if len(data) == 0 {
			if pos.Offset != ppos.Offset {
				t.Fatalf("no data but lag remains: local %d, primary %d", pos.Offset, ppos.Offset)
			}
			return
		}
		payloads, _, err := wal.Frames(data)
		if err != nil {
			t.Fatalf("frames: %v", err)
		}
		if _, err := replica.ApplyReplicated(pos.Offset, payloads); err != nil {
			t.Fatalf("apply at %d: %v", pos.Offset, err)
		}
	}
}

// TestReplicateEndToEnd replays the crash-suite workload on a primary —
// including a mid-workload checkpoint, so the replica must bootstrap
// from a snapshot and then tail — and requires the replica to be
// fingerprint-identical, with a byte-identical log, while refusing SQL
// writes until promoted.
func TestReplicateEndToEnd(t *testing.T) {
	primDir := filepath.Join(t.TempDir(), "primary")
	primary, err := OpenDB(primDir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	replica, _ := openReplica(t, nil)
	defer replica.Close()

	for i, stmt := range crashWorkload {
		if _, err := primary.Exec(stmt); err != nil {
			t.Fatalf("workload[%d]: %v", i, err)
		}
		if i == len(crashWorkload)/2 {
			if err := primary.Save(); err != nil { // generation reset mid-stream
				t.Fatal(err)
			}
		}
		syncReplica(t, primary, replica)
	}

	if got, want := fingerprintDB(replica), fingerprintDB(primary); got != want {
		t.Fatalf("replica diverged:\n--- replica ---\n%s\n--- primary ---\n%s", got, want)
	}
	if !replica.IsReplica() {
		t.Fatal("IsReplica() = false on a replica")
	}
	if _, err := replica.Query(`INSERT INTO kv VALUES (99, 'no', 0.0)`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica write = %v, want ErrReadOnly", err)
	}

	// The replica's log is a byte prefix (here: exact copy) of the
	// primary's — the property the whole resume protocol rests on.
	pb, err := os.ReadFile(filepath.Join(primDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(filepath.Join(replica.dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("replica log (%d bytes) is not byte-identical to primary log (%d bytes)", len(rb), len(pb))
	}
}

// TestApplyReplicatedIdempotent re-delivers already-applied frames (the
// normal aftermath of a reconnect) and requires them to be skipped
// without effect; partial overlap applies only the fresh suffix.
func TestApplyReplicatedIdempotent(t *testing.T) {
	primDir := filepath.Join(t.TempDir(), "primary")
	primary, err := OpenDB(primDir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, _ := openReplica(t, nil)
	defer replica.Close()

	primary.MustQuery(`CREATE TABLE t (a INT)`)
	primary.MustQuery(`INSERT INTO t VALUES (1)`)
	primary.MustQuery(`INSERT INTO t VALUES (2)`)

	start := replica.WALPosition()
	data, _, err := primary.ReadWALChunk(start.Gen, start.Offset, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, err := wal.Frames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 3 {
		t.Fatalf("%d frames, want 3", len(payloads))
	}
	pos1, err := replica.ApplyReplicated(start.Offset, payloads)
	if err != nil {
		t.Fatal(err)
	}

	// Full re-delivery: every frame below the local end is skipped.
	pos2, err := replica.ApplyReplicated(start.Offset, payloads)
	if err != nil {
		t.Fatalf("re-apply: %v", err)
	}
	if pos2 != pos1 {
		t.Fatalf("re-apply moved the position: %+v -> %+v", pos1, pos2)
	}

	// Partial overlap: resend the last frame plus a genuinely new one.
	primary.MustQuery(`INSERT INTO t VALUES (3)`)
	lastOff := pos1.Offset - wal.FrameSize(len(payloads[2]))
	data, _, err = primary.ReadWALChunk(start.Gen, lastOff, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	overlap, _, err := wal.Frames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(overlap) != 2 {
		t.Fatalf("%d overlap frames, want 2", len(overlap))
	}
	pos3, err := replica.ApplyReplicated(lastOff, overlap)
	if err != nil {
		t.Fatalf("overlap apply: %v", err)
	}
	if want := primary.WALPosition(); pos3 != want {
		t.Fatalf("after overlap apply at %+v, primary at %+v", pos3, want)
	}
	r := replica.MustQuery(`SELECT COUNT(*), SUM(a) FROM t`)
	if !strings.Contains(r.String(), "3") || !strings.Contains(r.String(), "6") {
		t.Fatalf("replica content wrong after re-delivery:\n%s", r)
	}
}

// TestApplyReplicatedRejectsGapAndStraddle: a stream that skips bytes or
// starts mid-frame is a protocol violation, never silently applied.
func TestApplyReplicatedRejectsGapAndStraddle(t *testing.T) {
	replica, _ := openReplica(t, nil)
	defer replica.Close()
	pos := replica.WALPosition()
	rec := []byte("not a real record but length is what matters")
	if _, err := replica.ApplyReplicated(pos.Offset+10, [][]byte{rec}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap err = %v", err)
	}
	if _, err := replica.ApplyReplicated(pos.Offset-3, [][]byte{rec}); err == nil || !strings.Contains(err.Error(), "straddles") {
		t.Fatalf("straddle err = %v", err)
	}
}

// TestPromote: catching up and promoting opens the write path and
// checkpointing; promoting a primary is refused.
func TestPromote(t *testing.T) {
	primDir := filepath.Join(t.TempDir(), "primary")
	primary, err := OpenDB(primDir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.MustQuery(`CREATE TABLE t (a INT)`)
	primary.MustQuery(`INSERT INTO t VALUES (7)`)

	replica, _ := openReplica(t, nil)
	defer replica.Close()
	syncReplica(t, primary, replica)

	pos, err := replica.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if want := primary.WALPosition(); pos != want {
		t.Fatalf("promoted at %+v, primary at %+v", pos, want)
	}
	if replica.IsReplica() || replica.ReadOnlyReason() != "" {
		t.Fatal("promotion must clear replica mode and the read-only gate")
	}
	if _, err := replica.Query(`INSERT INTO t VALUES (8)`); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if err := replica.Save(); err != nil {
		t.Fatalf("checkpoint after promote: %v", err)
	}
	if _, err := replica.Promote(); err == nil {
		t.Fatal("promoting a primary must fail")
	}
}

// TestPromoteRefusedWhenDegraded: an apply fault latches degraded mode
// and promotion is refused — a replica that could not apply everything it
// acked must never take writes.
func TestPromoteRefusedWhenDegraded(t *testing.T) {
	primDir := filepath.Join(t.TempDir(), "primary")
	primary, err := OpenDB(primDir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.MustQuery(`CREATE TABLE t (a INT)`)

	fs := vfs.NewFailFS(nil)
	replica, _ := openReplica(t, fs)
	defer replica.Close()

	pos := replica.WALPosition()
	data, _, err := primary.ReadWALChunk(pos.Gen, pos.Offset, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, err := wal.Frames(data)
	if err != nil {
		t.Fatal(err)
	}
	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected replica fsync failure"))
	if _, err := replica.ApplyReplicated(pos.Offset, payloads); err == nil {
		t.Fatal("apply with failing local log must error")
	}
	if replica.Degraded() == nil {
		t.Fatal("apply fault must latch degraded mode")
	}
	if _, err := replica.Promote(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("promote on degraded replica = %v, want refusal", err)
	}
}

// TestDegradedClearsOnReopen: a crash while degraded recovers clean — the
// reopen replays the durable prefix and the latch does not persist.
func TestDegradedClearsOnReopen(t *testing.T) {
	db, fs, dir := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected fsync failure"))
	if _, err := db.Query(`INSERT INTO t VALUES (2)`); err == nil {
		t.Fatal("write with failing fsync must error")
	}
	if db.Degraded() == nil {
		t.Fatal("degraded mode must latch")
	}
	// Crash without Close: reopen recovers the durable prefix, healthy.
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Degraded() != nil {
		t.Fatalf("degraded latch survived reopen: %v", db2.Degraded())
	}
	r := db2.MustQuery(`SELECT COUNT(*) FROM t`)
	if !strings.Contains(r.String(), "1") {
		t.Fatalf("recovered state wrong:\n%s", r)
	}
	if _, err := db2.Query(`INSERT INTO t VALUES (3)`); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

// TestReadOnlyOpen: the -read-only gate refuses writes with ErrReadOnly
// and never touches the store — not even the final checkpoint on Close.
func TestReadOnlyOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}

	ro, err := OpenDB(dir, OpenOptions{ReadOnly: "maintenance window"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatalf("read on read-only db: %v", err)
	}
	_, werr := ro.Query(`INSERT INTO t VALUES (2)`)
	if !errors.Is(werr, ErrReadOnly) || !strings.Contains(werr.Error(), "maintenance window") {
		t.Fatalf("write = %v, want ErrReadOnly with the reason", werr)
	}
	if got := ro.ReadOnlyReason(); got != "maintenance window" {
		t.Fatalf("ReadOnlyReason = %q", got)
	}
	if ro.IsReplica() {
		t.Fatal("read-only is not replica mode")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("read-only Close rewrote the manifest")
	}
}

// TestSnapshotWireRoundTrip: the bootstrap image survives the wire and a
// corrupted transfer fails the per-file checksum.
func TestSnapshotWireRoundTrip(t *testing.T) {
	pos := WALPos{Gen: 9, Offset: 12345, Records: 42}
	files := []SnapshotFile{
		{Name: "catalog.json", Data: []byte(`{"version":2}`)},
		{Name: "bats/t.a.9.bat", Data: bytes.Repeat([]byte{0xab, 0x00, 0x7f}, 1000)},
		{Name: "bats/empty.bat", Data: nil},
	}
	enc := EncodeSnapshot(pos, files)
	gotPos, gotFiles, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if gotPos != pos {
		t.Fatalf("pos = %+v, want %+v", gotPos, pos)
	}
	if len(gotFiles) != len(files) {
		t.Fatalf("%d files, want %d", len(gotFiles), len(files))
	}
	for i := range files {
		if gotFiles[i].Name != files[i].Name || !bytes.Equal(gotFiles[i].Data, files[i].Data) {
			t.Fatalf("file %d mismatch", i)
		}
	}
	// Flip one data byte mid-stream: decode must fail loudly.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("corrupted snapshot decoded without error")
	}
}

// TestBootstrapMarker: a directory with an interrupted install refuses to
// open until explicitly cleared, then bootstraps fresh.
func TestBootstrapMarker(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "repl-bootstrap.partial"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(dir, OpenOptions{Replica: true}); !errors.Is(err, ErrBootstrapIncomplete) {
		t.Fatalf("open = %v, want ErrBootstrapIncomplete", err)
	}
	if err := ClearIncompleteBootstrap(nil, dir); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(dir, OpenOptions{Replica: true})
	if err != nil {
		t.Fatalf("open after clear: %v", err)
	}
	db.Close()
	// Clearing a healthy directory is refused.
	if err := ClearIncompleteBootstrap(nil, dir); err == nil {
		t.Fatal("ClearIncompleteBootstrap on a marker-less directory must refuse")
	}
}

// TestGenerationResetDetected: after a primary checkpoint, a read at the
// old generation reports ErrGenMismatch (the re-bootstrap trigger), and
// ReadWALChunk never serves past the committed end.
func TestGenerationResetDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	old := db.WALPosition()
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReadWALChunk(old.Gen, old.Offset, 100); !errors.Is(err, wal.ErrGenMismatch) {
		t.Fatalf("stale-generation read = %v, want ErrGenMismatch", err)
	}
	cur := db.WALPosition()
	if _, _, err := db.ReadWALChunk(cur.Gen, cur.Offset+1, 100); !errors.Is(err, wal.ErrGenMismatch) {
		t.Fatalf("past-end read = %v, want ErrGenMismatch", err)
	}
}

// openPrimaryReplica opens a primary that never checkpoints, runs setup
// on it, and opens a replica synced to it.
func openPrimaryReplica(t *testing.T, setup ...string) (primary, replica *DB) {
	t.Helper()
	primary, err := OpenDB(filepath.Join(t.TempDir(), "primary"), OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	for _, stmt := range setup {
		primary.MustQuery(stmt)
	}
	replica, _ = openReplica(t, nil)
	t.Cleanup(func() { replica.Close() })
	syncReplica(t, primary, replica)
	return primary, replica
}

// objectBytes serialises every column of a catalog object, plus a
// table's deletion mask or an array's shape, for byte-for-byte
// comparisons.
func objectBytes(t *testing.T, cat *catalog.Catalog, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var bats []*bat.BAT
	if tb, ok := cat.Table(name); ok {
		bats = tb.Bats
		fmt.Fprintf(&buf, "deleted %d:", tb.Deleted.Len())
		for i := 0; i < tb.Deleted.Len(); i++ {
			fmt.Fprint(&buf, tb.Deleted.Get(i))
		}
	} else if a, ok := cat.Array(name); ok {
		fmt.Fprintf(&buf, "shape %v:", a.Shape)
		bats = append(append(bats, a.AttrBats...), a.DimBats...)
	} else {
		t.Fatalf("no object %q", name)
	}
	for _, b := range bats {
		if err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestApplyReplicatedSnapshotIsolation: a snapshot a replica reader
// holds never changes when later batches are applied — replicated
// UPDATEs copy shared columns before writing, as the primary's do.
func TestApplyReplicatedSnapshotIsolation(t *testing.T) {
	primary, replica := openPrimaryReplica(t,
		`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 7)`,
		`CREATE TABLE t (k INT, v INT)`,
		`INSERT INTO t VALUES (1, 10), (2, 20)`)
	held := replica.Snapshot()
	wantA, wantT := objectBytes(t, held, "a"), objectBytes(t, held, "t")

	primary.MustQuery(`UPDATE a SET v = 99 WHERE x = 1`)
	primary.MustQuery(`UPDATE t SET v = 55 WHERE k = 1`)
	syncReplica(t, primary, replica)

	if !bytes.Equal(objectBytes(t, held, "a"), wantA) {
		t.Error("a replicated array UPDATE changed the held snapshot")
	}
	if !bytes.Equal(objectBytes(t, held, "t"), wantT) {
		t.Error("a replicated table UPDATE changed the held snapshot")
	}
	if len(replica.walPending) > 0 {
		t.Fatalf("applying replicated records queued %d records for the replica's own log", len(replica.walPending))
	}
	r := replica.MustQuery(`SELECT v FROM a WHERE x = 1`).String() + replica.MustQuery(`SELECT v FROM t WHERE k = 1`).String()
	if !strings.Contains(r, "99") || !strings.Contains(r, "55") {
		t.Fatalf("the replica's current snapshot misses the updates:\n%s", r)
	}
}

// TestWALRecoveryRejectsWholeRecord: a checksum-valid record whose last
// position or row does not fit its object, or whose row count or column
// the object cannot hold, is refused whole, by recovery and by a replica
// alike: the object stays byte-for-byte as it was. The typed records and
// the decode-only per-cell (V1) records are both checked.
func TestWALRecoveryRejectsWholeRecord(t *testing.T) {
	setup := []string{
		`CREATE TABLE t (i INT, f DOUBLE)`,
		`INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, NULL)`,
		`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 7, s VARCHAR)`,
		`UPDATE a SET s = 'z' WHERE x > 1`,
		`CREATE TABLE u (i INT)`,
	}
	intVal := func(e *recEnc, v int64) {
		e.b = append(e.b, byte(types.KindInt))
		e.i64(v)
	}
	floatVal := func(e *recEnc, f float64) {
		e.b = append(e.b, byte(types.KindFloat))
		e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
	}
	// cellsV1 encodes one value per position into attribute or column 0.
	cellsV1 := func(op byte, name string, pos ...int) []byte {
		e := newRecEnc(op)
		e.str(name)
		e.u64(1)
		e.u64(0)
		e.u64(uint64(len(pos)))
		for _, p := range pos {
			e.u64(uint64(p))
			intVal(e, int64(100+p))
		}
		return e.b
	}
	// The append's last row holds a float out of integer range for i.
	appendV1 := newRecEnc(recTableAppendV1)
	appendV1.str("t")
	appendV1.u64(2)
	appendV1.u64(2)
	intVal(appendV1, 4)
	floatVal(appendV1, 4.5)
	floatVal(appendV1, 1e300)
	floatVal(appendV1, 5.5)
	// Fifty thousand copies of attribute 0 and a row count to match, but
	// bytes for one value only: refused before any column is allocated.
	wideV1 := newRecEnc(recArrayUpdateV1)
	wideV1.str("a")
	wideV1.u64(50000)
	wideV1.b = append(wideV1.b, make([]byte, 50000)...)
	wideV1.u64(50000)
	wideV1.u64(0)
	intVal(wideV1, 1)
	deleteV1 := newRecEnc(recArrayDeleteV1)
	deleteV1.str("a")
	deleteV1.u64(3)
	for _, p := range []uint64{0, 1, 999} {
		deleteV1.u64(p)
	}

	// typed encodes a typed record on attribute or column 0: n rows at
	// positions pos (none when nil), then the column bytes as given.
	typed := func(op byte, name string, n int, pos []int, cols ...[]byte) []byte {
		e := newRecEnc(op)
		e.str(name)
		if op == recTableAppend {
			e.u64(uint64(len(cols)))
		} else if op != recTableDelete && op != recArrayDelete {
			e.ordinals([]int{0})
		}
		e.u64(uint64(n))
		e.b = bat.AppendPositions(e.b, pos)
		for _, c := range cols {
			e.b = append(e.b, c...)
		}
		return e.b
	}
	col := func(b *bat.BAT) []byte { return bat.AppendColumn(nil, b) }
	ints := func(v ...int64) []byte { return col(bat.FromInts(v)) }
	// 50 000 writes of cell 0 and a constant column take a few bytes:
	// the row count alone must be refused against the 4 cells of a.
	constant := ints(make([]int64, 50000)...)
	// A constant column of any length is a header and a base: an append
	// of maxReplayCells-1 rows in a few bytes, refused by the per-record
	// cell bound before the column is allocated.
	constantHeader := binary.AppendUvarint(nil, uint64(types.KindInt)<<1)
	hugeAppend := typed(recTableAppend, "u", maxReplayCells-1, nil, binary.AppendVarint(constantHeader, 9))
	// A width-65 header, and a column whose NULL bitmap is cut short.
	wide := append(binary.AppendUvarint(nil, 65<<4|uint64(types.KindInt)<<1), 0)
	nulls := bat.FromInts([]int64{1, 2, 3})
	nulls.SetNull(1, true)
	shortNulls := col(nulls)[:1]
	cases := []struct {
		name, obj string
		rec       []byte
	}{
		{"array update", "a", typed(recArrayUpdate, "a", 3, []int{0, 1, 999}, ints(100, 101, 102))},
		{"table update", "t", typed(recTableUpdate, "t", 3, []int{0, 1, 999}, ints(100, 101, 102))},
		{"table append", "t", typed(recTableAppend, "t", 2, nil, ints(4, 5), ints(4, 5))},
		{"array delete", "a", typed(recArrayDelete, "a", 3, []int{0, 1, 999})},
		{"implausible row count", "a", typed(recArrayUpdate, "a", 50000, make([]int, 50000), constant)},
		{"constant append past the record bound", "u", hugeAppend},
		{"width 65", "a", typed(recArrayUpdate, "a", 1, []int{0}, wide)},
		{"short null bitmap", "t", typed(recTableUpdate, "t", 3, []int{0, 1, 2}, shortNulls)},
		{"trailing bytes", "a", append(typed(recArrayUpdate, "a", 1, []int{0}, ints(5)), 0)},
		{"v1 array update", "a", cellsV1(recArrayUpdateV1, "a", 0, 1, 999)},
		{"v1 table update", "t", cellsV1(recTableUpdateV1, "t", 0, 1, 999)},
		{"v1 table append", "t", appendV1.b},
		{"v1 array delete", "a", deleteV1.b},
		{"v1 implausible row count", "a", wideV1.b},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			primary, replica := openPrimaryReplica(t, setup...)
			batch := encodeBatch([][]byte{c.rec})

			primary.mu.Lock()
			want := objectBytes(t, primary.cat, c.obj)
			err := primary.applyWALBatch(batch)
			got := objectBytes(t, primary.cat, c.obj)
			primary.mu.Unlock()
			if err == nil {
				t.Error("replay accepted the record")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replay changed %s before refusing the record (%v)", c.obj, err)
			}

			want = objectBytes(t, replica.cat, c.obj)
			_, err = replica.ApplyReplicated(replica.WALPosition().Offset, [][]byte{batch})
			if err == nil {
				t.Error("the replica accepted the record")
			}
			if !bytes.Equal(objectBytes(t, replica.cat, c.obj), want) {
				t.Errorf("the replica changed %s before refusing the record (%v)", c.obj, err)
			}
		})
	}
}

// TestZeroOptionsCheckpointAtDefault: a database opened with zero
// OpenOptions, and a zero-options replica once promoted, fold their WAL
// at DefaultCheckpointBytes; zero never means "no automatic checkpoint".
func TestZeroOptionsCheckpointAtDefault(t *testing.T) {
	primary, err := OpenDB(filepath.Join(t.TempDir(), "primary"), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, _ := openReplica(t, nil)
	defer replica.Close()
	if _, err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"primary": primary, "promoted replica": replica} {
		db.mu.RLock()
		got := db.ckptBytes
		db.mu.RUnlock()
		if got != DefaultCheckpointBytes {
			t.Fatalf("%s: checkpoint threshold %d, want %d", name, got, DefaultCheckpointBytes)
		}
		// Each UPDATE logs about 1.4 MB (300 000 offsets of 37 to 39
		// bits): the log must fold once it passes the threshold (in the
		// background, after the commit is acked).
		db.MustQuery(`CREATE ARRAY big (i INT DIMENSION[0:1:300000], v INT DEFAULT 0)`)
		for k := 1; k <= 4; k++ {
			db.MustQuery(fmt.Sprintf(`UPDATE big SET v = i * i * %d`, k))
		}
		deadline := time.Now().Add(10 * time.Second)
		for db.CheckpointBytes() == 0 || db.WALSize() > DefaultCheckpointBytes {
			if time.Now().After(deadline) {
				t.Fatalf("%s: WAL at %d bytes never folded", name, db.WALSize())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
