// Package wal implements the engine's write-ahead log: an append-only
// file of checksummed, length-prefixed records, after MonetDB/ARIES-style
// logging. The engine appends one batch of records per committed write
// (autocommit statement or explicit COMMIT) and fsyncs, so a commit costs
// O(delta) instead of the O(database) full rewrite of the old save path;
// a checkpoint then folds the log into versioned BAT segment files and
// starts a fresh log generation.
//
// On-disk format, little-endian throughout:
//
//	header  magic   [4]byte  "SCQW"
//	        version uint16   (1)
//	        gen     uint64   log generation; must match the manifest's
//	records uvarint payload length
//	        payload []byte
//	        crc32   uint32   IEEE, over the payload
//
// The generation ties a log to the checkpoint it extends: a checkpoint
// bumps the manifest's generation and replaces the log with a fresh
// header, so a log whose generation does not match the manifest is a
// stale leftover of an interrupted checkpoint and is discarded whole.
//
// Recovery scans records until the first torn or checksum-failing one and
// truncates the file there: a crash mid-append can only lose the record
// being written, never corrupt the committed prefix.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/vfs"
)

const (
	magic   = "SCQW"
	version = 1

	headerSize = 4 + 2 + 8

	// MaxRecord bounds a single record's payload; a larger length prefix
	// marks the log corrupt at that point (a real record never comes
	// close, and the bound keeps a corrupted length from driving a huge
	// allocation during recovery).
	MaxRecord = 1 << 30
)

// ErrBadHeader reports a log file whose header is missing or malformed —
// unlike a torn tail this is not a normal crash artifact, so opening
// fails instead of silently discarding the log.
var ErrBadHeader = errors.New("wal: bad log header")

// ErrGenMismatch reports a positioned read against a log whose generation
// is not the one the reader expected: the log was reset by a checkpoint
// since the reader's position was taken, so the position is meaningless
// and the reader must re-bootstrap from a snapshot.
var ErrGenMismatch = errors.New("wal: log generation mismatch")

// ErrCorruptFrame reports a framed record whose checksum fails or whose
// length prefix is implausible inside an otherwise complete buffer — in a
// replication stream this marks bytes corrupted in transit (or a buggy
// sender), unlike a merely incomplete tail, which is normal.
var ErrCorruptFrame = errors.New("wal: corrupt record frame")

// HeaderSize is the byte length of the log header; the first record
// starts at this offset, so it is the zero position of every stream.
const HeaderSize = headerSize

// Log is an open write-ahead log positioned for appending. The group
// commit loop appends while other goroutines read Size/Records under the
// engine's read lock, so the mutable state is guarded by an internal
// mutex; Append itself stays single-callered (the commit loop or the
// engine under its write lock), the lock makes the position reads safe.
type Log struct {
	mu    sync.Mutex
	f     vfs.File
	fs    vfs.FS
	path  string
	gen   uint64
	size  int64 // bytes of header + valid records on disk
	recs  int64 // records in the valid prefix (scanned on open, counted on append)
	syncs int64 // fsyncs issued by Append (group commit amortization metric)
	// truncated is how many trailing bytes Open discarded as torn or
	// corrupt — the size of the data-loss window an operator (or a
	// replica deciding whether its primary went back in time) can see.
	truncated int64
	// err poisons the log after a failed append whose rollback truncate
	// also failed: the file may hold a partial frame that the next
	// O_APPEND write would bury mid-file, making recovery truncate away
	// every record after it — including previously acked ones. Refusing
	// further appends bounds the loss to the one failed batch.
	err error
}

// Create atomically replaces (or creates) the log at path with an empty
// log of the given generation and returns it opened for appending. The
// header is written to a temp file, fsynced and renamed into place, so a
// crash never leaves a half-written header behind.
func Create(path string, gen uint64) (*Log, error) {
	return CreateFS(vfs.OS, path, gen)
}

// CreateFS is Create on an explicit filesystem (fault-injection tests).
func CreateFS(fsys vfs.FS, path string, gen uint64) (*Log, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[6:], gen)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	f, err = fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, fs: fsys, path: path, gen: gen, size: headerSize}, nil
}

// readHeader consumes and validates the log header, returning its
// generation.
func readHeader(r io.Reader) (uint64, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if string(hdr[:4]) != magic {
		return 0, fmt.Errorf("%w: magic %q", ErrBadHeader, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != version {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, v)
	}
	return binary.LittleEndian.Uint64(hdr[6:]), nil
}

// Header returns the generation of the log at path without scanning its
// records, so a caller can discard a stale-generation log before replay.
func Header(path string) (uint64, error) { return HeaderFS(vfs.OS, path) }

// HeaderFS is Header on an explicit filesystem.
func HeaderFS(fsys vfs.FS, path string) (uint64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return readHeader(f)
}

// Open reads the log at path, streams every intact record to apply in
// order, truncates any torn or checksum-failing tail, and returns the log
// opened for appending. A nil apply skips replay (the records are still
// scanned to find the valid end). An error from apply aborts the open.
func Open(path string, apply func(rec []byte) error) (*Log, error) {
	return OpenFS(vfs.OS, path, apply)
}

// OpenFS is Open on an explicit filesystem.
func OpenFS(fsys vfs.FS, path string, apply func(rec []byte) error) (*Log, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	gen, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}

	valid, nrec, err := scan(f, headerSize, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	w, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var torn int64
	if fi, err := w.Stat(); err == nil && fi.Size() > valid {
		// Discard the torn tail so new appends start at a record boundary.
		torn = fi.Size() - valid
		if err := w.Truncate(valid); err != nil {
			w.Close()
			return nil, err
		}
		if err := w.Sync(); err != nil {
			w.Close()
			return nil, err
		}
	}
	if _, err := w.Seek(valid, io.SeekStart); err != nil {
		w.Close()
		return nil, err
	}
	return &Log{f: w, fs: fsys, path: path, gen: gen, size: valid, recs: nrec, truncated: torn}, nil
}

// scan reads framed records from r (positioned just past the header),
// calling apply for each intact one, and returns the offset of the end of
// the last intact record plus the intact record count. Any framing
// violation — truncated length, oversized length, short payload, checksum
// mismatch — ends the scan without error: it marks the crash point.
// Offsets are tracked from the bytes actually consumed, not recomputed
// from decoded values: a corrupted-but-parsable length prefix (e.g. a
// non-minimal varint) must not desynchronize the truncation point from
// the stream position.
func scan(r io.Reader, start int64, apply func(rec []byte) error) (int64, int64, error) {
	br := &byteReader{r: r}
	valid := start
	var nrec int64
	var payload []byte
	for {
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return valid, nrec, nil // clean EOF or torn length prefix
		}
		if length > MaxRecord {
			return valid, nrec, nil // corrupt length
		}
		need := int(length) + 4
		if cap(payload) < need {
			payload = make([]byte, need)
		}
		buf := payload[:need]
		if _, err := io.ReadFull(br, buf); err != nil {
			return valid, nrec, nil // torn payload or checksum
		}
		body, sum := buf[:length], binary.LittleEndian.Uint32(buf[length:])
		if crc32.ChecksumIEEE(body) != sum {
			return valid, nrec, nil // corrupted record
		}
		if apply != nil {
			if err := apply(body); err != nil {
				return valid, nrec, err
			}
		}
		valid = start + br.consumed
		nrec++
	}
}

// byteReader adapts an io.Reader for binary.ReadUvarint, counting the
// bytes consumed so scan can place record boundaries exactly.
type byteReader struct {
	r        io.Reader
	consumed int64
	one      [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	b.consumed++
	return b.one[0], nil
}

func (b *byteReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.consumed += int64(n)
	return n, err
}

// Gen returns the log's generation.
func (l *Log) Gen() uint64 { return l.gen }

// Size returns the current log size in bytes (header + records).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of records in the valid prefix: those
// replayed on open plus those appended since. Replication lag in records
// is the difference between two logs' counts at the same generation.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Syncs returns the number of fsyncs Append has issued on this log. With
// group commit, commits divided by syncs is the amortization factor the
// commit queue achieved (fsyncs/commit < 1 means batching is working).
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Truncated returns how many trailing bytes Open discarded as torn or
// corrupt (0 for a cleanly closed log, and always 0 after Create). A
// non-zero value is a visible data-loss window: bytes that were written
// but never became a committed record.
func (l *Log) Truncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Append frames and writes the records as one durable unit: all of them
// are written, then the file is fsynced once. On any error the log file
// is truncated back to its pre-append size so a failed append can never
// leave a partial batch that a later append would bury mid-file. A
// record larger than MaxRecord is refused up front: recovery would
// treat its length prefix as corruption and silently drop it together
// with everything after it, so the commit must fail loudly instead.
func (l *Log) Append(recs ...[]byte) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if uint64(len(rec)) > MaxRecord {
			return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(rec), int64(MaxRecord))
		}
	}
	// One allocation of the exact frame size: the record bytes are copied
	// once.
	var size int64
	for _, rec := range recs {
		size += FrameSize(len(rec))
	}
	frame := make([]byte, 0, size)
	for _, rec := range recs {
		frame = binary.AppendUvarint(frame, uint64(len(rec)))
		frame = append(frame, rec...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.resetLocked(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.resetLocked(err)
		return err
	}
	l.size += int64(len(frame))
	l.recs += int64(len(recs))
	l.syncs++
	return nil
}

// resetLocked rolls the file back to the last known-good size after a
// failed append. The rollback is NOT best-effort: if the truncate or
// seek itself fails, a partial frame may remain on disk, and because the
// handle is O_APPEND the next successful append would land after it —
// recovery's scan would then stop at the garbage and discard that later,
// acked record. To keep the in-memory offset and the file consistent the
// log is poisoned instead: every later Append fails with the original
// cause until the engine replaces the log at the next checkpoint.
func (l *Log) resetLocked(cause error) {
	if err := l.f.Truncate(l.size); err != nil {
		l.err = fmt.Errorf("wal: append failed (%v) and rollback truncate failed (%v): log refuses further appends", cause, err)
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.err = fmt.Errorf("wal: append failed (%v) and rollback seek failed (%v): log refuses further appends", cause, err)
	}
}

// Close releases the log file handle.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// SyncDir fsyncs a directory so renames into it are durable. The
// checkpoint machinery shares it for segment and manifest directories.
// Filesystems that do not support directory fsync are tolerated; a real
// I/O failure is not — callers rely on it for their no-torn-store
// guarantees.
func SyncDir(dir string) error { return vfs.OS.SyncDir(dir) }

// ---------------------------------------------------------- replication

// Streaming support: a primary serves its log to replicas as raw framed
// bytes read at a byte position (ChunkFS), and a replica reassembles
// complete records from the stream (Frames). The frames on the wire are
// byte-identical to the frames on disk, so a replica that appends the
// payloads it applies via Append reproduces the primary's log byte for
// byte — its log size IS its replication position.

// FrameSize returns the on-disk (and on-wire) byte length of one framed
// record: varint length prefix + payload + CRC32.
func FrameSize(payloadLen int) int64 {
	var lenBuf [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(lenBuf[:], uint64(payloadLen)) + payloadLen + 4)
}

// ChunkFS reads up to max raw bytes of the log at path starting at byte
// offset off, after verifying the log still carries generation gen
// (ErrGenMismatch otherwise: the log was reset by a checkpoint and the
// caller's position is void). The returned bytes start at a record
// boundary only if off does; callers track positions from HeaderSize and
// frame ends, so they always do. Reading near the live tail may return
// bytes of a record still being appended — Frames on the receiving side
// holds incomplete tails back.
func ChunkFS(fsys vfs.FS, path string, gen uint64, off, max int64) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	if g != gen {
		return nil, fmt.Errorf("%w: have %d, want %d", ErrGenMismatch, g, gen)
	}
	if off < headerSize {
		return nil, fmt.Errorf("wal: chunk offset %d inside the header", off)
	}
	if max <= 0 {
		return nil, nil
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, max)
	n, err := io.ReadFull(f, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// Frames splits a stream buffer into complete record payloads. It
// returns the payloads, the bytes they consumed (so the caller advances
// its position by exactly that), and whether the remainder is merely
// incomplete (nil error — more bytes will complete it) or definitely
// corrupt (ErrCorruptFrame — checksum failure or implausible length;
// the caller must discard the tail and re-request from the consumed
// position, exactly as crash recovery truncates a torn tail).
func Frames(buf []byte) (payloads [][]byte, consumed int64, err error) {
	off := 0
	for off < len(buf) {
		length, n := binary.Uvarint(buf[off:])
		if n == 0 {
			break // incomplete length prefix
		}
		if n < 0 || length > MaxRecord {
			return payloads, consumed, fmt.Errorf("%w: implausible length at %d", ErrCorruptFrame, off)
		}
		end := off + n + int(length) + 4
		if end > len(buf) {
			break // incomplete payload or checksum
		}
		body := buf[off+n : off+n+int(length)]
		sum := binary.LittleEndian.Uint32(buf[off+n+int(length):])
		if crc32.ChecksumIEEE(body) != sum {
			return payloads, consumed, fmt.Errorf("%w: checksum failure at %d", ErrCorruptFrame, off)
		}
		payloads = append(payloads, body)
		off = end
		consumed = int64(off)
	}
	return payloads, consumed, nil
}
