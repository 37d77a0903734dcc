// Package journal implements the crash-safe campaign log that makes
// exploration state as durable as the hardware snapshots it indexes:
// an append-only file of CRC-framed records with scan-side corruption
// recovery.
//
// The framing borrows the idioms of the remote protocol (internal/
// remote): every record is length-prefixed and checksummed, so a
// reader can walk the file record by record and prove each one intact
// before trusting it. Unlike a wire stream there is no peer to ask for
// a retransmit — the recovery rule is instead *prefix truncation*: a
// scan returns the longest prefix of intact records and reports where
// (and that) it stopped. A process killed mid-append leaves a torn
// tail; a bit flip at rest leaves a failing CRC; both degrade to
// "resume from the last good record", never to silently wrong state.
//
// File layout (all integers little-endian):
//
//	file:   magic "HSJ1" record*
//	record: kind(1) len(4) payload[len] crc(4)
//
// crc is a CRC-32 (IEEE) over kind, len and payload together, so a
// corrupted length field fails the checksum rather than framing the
// reader into garbage. len is bounded (maxPayload, and by what is left
// of the file) so a torn length cannot drive an unbounded allocation.
//
// Appends are written with a single Write call — the kernel makes a
// same-file write of a record-sized buffer effectively atomic with
// respect to a crash of this process (a machine-level power cut still
// degrades safely: the tail record fails its CRC and is truncated
// away). Sync flushes to stable storage at the caller's chosen
// boundaries.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// magic identifies a journal file ("HSJ1").
var magic = [4]byte{'H', 'S', 'J', '1'}

const (
	hdrLen     = 5 // kind(1) len(4)
	trailerLen = 4 // crc32
	// maxPayload bounds one record so a corrupted length field cannot
	// make a reader allocate unbounded memory.
	maxPayload = 1 << 28
)

// ErrNotJournal reports a file whose magic header is missing or wrong.
var ErrNotJournal = errors.New("journal: not a journal file (bad magic)")

// Record is one framed journal entry. Kind is caller-defined; the
// journal layer only frames and checksums.
type Record struct {
	Kind    byte
	Payload []byte
}

func encodeRecord(r Record) []byte {
	buf := make([]byte, hdrLen+len(r.Payload)+trailerLen)
	buf[0] = r.Kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(r.Payload)))
	copy(buf[hdrLen:], r.Payload)
	crc := crc32.ChecksumIEEE(buf[:hdrLen+len(r.Payload)])
	binary.LittleEndian.PutUint32(buf[hdrLen+len(r.Payload):], crc)
	return buf
}

// ScanResult is what a Scan recovered from a journal file.
type ScanResult struct {
	// Records is the longest intact prefix of the file's records.
	Records []Record
	// Truncated reports that the scan stopped before the end of the
	// file — a torn tail (killed mid-append) or a corrupted record.
	// Everything before GoodBytes is proven intact.
	Truncated bool
	// GoodBytes is the file offset just past the last intact record
	// (including the magic header). AppendTo resumes writing here.
	GoodBytes int64
}

// Scan reads a journal file and returns every record up to the first
// corruption or truncation. A missing file is an error; an empty
// well-formed journal returns zero records.
func Scan(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scanFile(f)
}

func scanFile(f *os.File) (*ScanResult, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return scan(f, fi.Size())
}

// scan walks size bytes of journal from r. size bounds every record
// before its buffer is allocated, so a corrupted length field costs no
// more memory than the file has bytes.
func scan(r io.Reader, size int64) (*ScanResult, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, ErrNotJournal
	}
	if m != magic {
		return nil, ErrNotJournal
	}
	res := &ScanResult{GoodBytes: int64(len(magic))}
	var hdr [hdrLen]byte
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return res, nil // clean end of journal
		}
		if err != nil {
			res.Truncated = true // torn header
			return res, nil
		}
		n := binary.LittleEndian.Uint32(hdr[1:5])
		if n > maxPayload || int64(n) > size-res.GoodBytes-hdrLen-trailerLen {
			res.Truncated = true // corrupted length, or a torn payload
			return res, nil
		}
		body := make([]byte, int(n)+trailerLen)
		if _, err := io.ReadFull(r, body); err != nil {
			res.Truncated = true // the file shrank under the scan
			return res, nil
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:])
		crc.Write(body[:n])
		if crc.Sum32() != binary.LittleEndian.Uint32(body[n:]) {
			res.Truncated = true // bit flip anywhere in the record
			return res, nil
		}
		res.Records = append(res.Records, Record{Kind: hdr[0], Payload: body[:n]})
		res.GoodBytes += int64(hdrLen) + int64(n) + trailerLen
	}
}

// Stats counts a writer's activity.
type Stats struct {
	// Records / Bytes cover every record this writer appended plus the
	// intact records it adopted when opened with AppendTo.
	Records uint64
	Bytes   uint64
}

// Writer appends records to a journal file. It is not safe for
// concurrent use; callers serialize (the campaign layer appends under
// its supervisor lock).
type Writer struct {
	f     *os.File
	stats Stats
}

// Create makes (or truncates) a journal file.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, stats: Stats{Bytes: uint64(len(magic))}}, nil
}

// AppendTo opens an existing journal for appending. The tail is
// scanned first: writing resumes after the last intact record, so a
// torn tail from a killed process is overwritten rather than extended
// into permanent garbage. The intact records are returned so the
// caller can rebuild its state from the same pass.
func AppendTo(path string) (*Writer, *ScanResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	res, err := scanFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if res.Truncated {
		if err := f.Truncate(res.GoodBytes); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(res.GoodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{f: f}
	w.stats.Records = uint64(len(res.Records))
	w.stats.Bytes = uint64(res.GoodBytes)
	return w, res, nil
}

// Stats returns a copy of the writer's counters.
func (w *Writer) Stats() Stats { return w.stats }

// Append frames and writes one record in a single write call.
func (w *Writer) Append(kind byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("journal: record payload %d exceeds limit", len(payload))
	}
	buf := encodeRecord(Record{Kind: kind, Payload: payload})
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	w.stats.Records++
	w.stats.Bytes += uint64(len(buf))
	return nil
}

// Sync flushes appended records to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Close syncs and closes the journal.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
