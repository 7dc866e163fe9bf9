package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record is one durable store entry — the unit the WAL journals and
// snapshots stream. Its binary form is self-contained and decodable from
// any record boundary, the property that keeps multi-session journals
// replayable: no encoder state spans records, so a journal appended by
// successive process incarnations reads as one stream.
type Record struct {
	Key   string
	Value []byte
	TS    Timestamp
}

// recordMagic is the first byte of every binary-encoded record.
const recordMagic byte = 0xA6

// recordVersion is the record layout version.
const recordVersion byte = 1

// AppendRecord appends the record's binary encoding to dst:
// [magic][version][key][value][timestamp] with the codec's field
// primitives.
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst, recordMagic, recordVersion)
	dst = appendString(dst, r.Key)
	dst = appendBytes(dst, r.Value)
	return appendTS(dst, r.TS)
}

// errNotRecord reports that a buffer does not start with a binary record
// (or a snapshot with its header).
var errNotRecord = errors.New("wire: not a binary record")

// DecodeRecord parses one binary-encoded record. The returned record never
// aliases data. A buffer that does not begin with recordMagic fails with
// errNotRecord.
func DecodeRecord(data []byte) (Record, error) {
	if len(data) < 2 || data[0] != recordMagic {
		return Record{}, errNotRecord
	}
	if data[1] != recordVersion {
		return Record{}, fmt.Errorf("wire: record version %d, want %d", data[1], recordVersion)
	}
	r := reader{buf: data[2:]}
	rec := Record{Key: r.str(), Value: r.bytes(), TS: r.ts()}
	if r.err != nil {
		return Record{}, fmt.Errorf("wire: decode record: %w", r.err)
	}
	if len(r.buf) != 0 {
		return Record{}, fmt.Errorf("wire: decode record: %d trailing bytes", len(r.buf))
	}
	return rec, nil
}

// Snapshot framing: a snapshot file is [snapshotMagic][version] followed by
// length-prefixed records ([4-byte big-endian length][record]) until EOF.

// snapshotMagic is the first byte of a binary snapshot file.
const snapshotMagic byte = 0xA7

// snapshotVersion is the snapshot framing version.
const snapshotVersion byte = 1

// SnapshotHeader returns the two-byte header that opens a binary snapshot.
func SnapshotHeader() []byte { return []byte{snapshotMagic, snapshotVersion} }

// CheckSnapshotHeader validates a snapshot header previously read from a
// file.
func CheckSnapshotHeader(hdr []byte) error {
	if len(hdr) < 2 || hdr[0] != snapshotMagic {
		return errNotRecord
	}
	if hdr[1] != snapshotVersion {
		return fmt.Errorf("wire: snapshot version %d, want %d", hdr[1], snapshotVersion)
	}
	return nil
}

// MaxRecord bounds one record's encoded size during replay, so a corrupt
// length prefix cannot ask for an absurd allocation.
const MaxRecord = 1 << 24

// AppendFramedRecord appends [length][record] to dst — the framing the WAL
// and snapshots share.
func AppendFramedRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendRecord(dst, r)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// ReadFramedRecords reads the frames AppendFramedRecord writes from r and
// passes each decoded record to apply, returning how many it applied. It
// returns a nil error at EOF on a record boundary. Anything else — a short
// header, a zero or oversized length, a short body or a body that is not a
// record — stops the read with an error, after every record before it was
// applied. Callers choose the policy: a WAL treats the error as a torn
// tail, a snapshot as corruption.
func ReadFramedRecords(r io.Reader, apply func(Record)) (int, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	var buf []byte
	for applied := 0; ; applied++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return applied, nil
			}
			return applied, fmt.Errorf("wire: record header: %w", err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > MaxRecord {
			return applied, fmt.Errorf("wire: implausible record length %d", n)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return applied, fmt.Errorf("wire: record body: %w", err)
		}
		rec, err := DecodeRecord(buf)
		if err != nil {
			return applied, err
		}
		apply(rec)
	}
}
