// Package replay is the host-side durable record stream: an opt-in
// append-only log of every event the application logs, organized into
// time-ordered chunks so a query submitted after an incident can replay
// the recent past through the normal central pipeline before going live
// (DESIGN.md §15).
//
// The layout follows the vault/chunk/seal/index shape of append-only
// event stores: one active in-memory chunk accumulates encoded events
// until a size or age threshold seals it; sealing freezes the chunk
// behind a lightweight index (event-type bitmap, min/max timestamp) and
// hands it to a background flusher that
// tiers it to disk and enforces retention (max bytes, max age). Scans
// prune whole chunks on the index before decoding a single event.
//
//scrub:longlived
package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"scrub/internal/event"
)

// Chunk file layout, all fixed-width fields little-endian:
//
//	magic     [8]byte  "SCRBCHK2"
//	minTs     int64    smallest event TimeNanos in the chunk
//	maxTs     int64    largest event TimeNanos in the chunk
//	typeBits  uint64   bitmap of hash(event type) % 64
//	count     uint32   number of records
//	payload   uvarint-length-prefixed event.AppendEvent records
//	crc       uint32   IEEE CRC-32 of everything before it
//
// A chunk is a single atomic unit: it is written to disk in one call
// and validated wholesale on recovery. A crash mid-write leaves a
// truncated tail file that fails the length or CRC check and is
// dropped; every earlier chunk is bit-intact or it is dropped too. A
// chunk of the first format ("SCRBCHK1", which carried a request-id bloom
// filter after typeBits) fails the magic check and is dropped as well.
const (
	chunkMagic   = "SCRBCHK2"
	chunkHdrSize = 8 + 8 + 8 + 8 + 4 + 4 // magic..payloadLen
	chunkMinSize = chunkHdrSize + 4      // empty payload + crc
)

var (
	errBadMagic  = errors.New("replay: bad chunk magic")
	errTruncated = errors.New("replay: truncated chunk")
	errBadCRC    = errors.New("replay: chunk crc mismatch")
)

// Index is the per-chunk summary consulted before any decode work. The
// type bitmap is approximate (false positives only); the timestamp bounds
// are exact.
type Index struct {
	MinTs int64
	MaxTs int64
	Count uint32

	typeBits uint64
}

// typeBit hashes an event-type name onto the 64-bit type bitmap (FNV-1a).
func typeBit(name string) uint64 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return 1 << (h % 64)
}

func (ix *Index) addType(name string) { ix.typeBits |= typeBit(name) }
func (ix *Index) observeTs(ts int64) {
	if ix.Count == 0 || ts < ix.MinTs {
		ix.MinTs = ts
	}
	if ix.Count == 0 || ts > ix.MaxTs {
		ix.MaxTs = ts
	}
}

// MayContainType reports whether the chunk can hold events of the named
// type. False means definitely not; true means possibly.
func (ix *Index) MayContainType(name string) bool {
	return ix.typeBits&typeBit(name) != 0
}

// Overlaps reports whether any event time in the chunk can fall inside
// the half-open range [fromNs, toNs).
func (ix *Index) Overlaps(fromNs, toNs int64) bool {
	return ix.Count > 0 && ix.MaxTs >= fromNs && ix.MinTs < toNs
}

// appendChunk serializes a sealed chunk: header + payload + CRC. The
// payload is the record bytes the active chunk accumulated.
func appendChunk(dst []byte, ix *Index, payload []byte) []byte {
	dst = append(dst, chunkMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ix.MinTs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ix.MaxTs))
	dst = binary.LittleEndian.AppendUint64(dst, ix.typeBits)
	dst = binary.LittleEndian.AppendUint32(dst, ix.Count)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[len(dst)-len(payload)-chunkHdrSize:len(dst)]))
}

// DecodeChunk validates a serialized chunk and returns its index and
// payload (aliasing b). It rejects truncation, trailing garbage, and
// corruption — the recovery path drops any chunk this refuses.
func DecodeChunk(b []byte) (Index, []byte, error) {
	var ix Index
	if len(b) < chunkMinSize {
		return ix, nil, errTruncated
	}
	if string(b[:8]) != chunkMagic {
		return ix, nil, errBadMagic
	}
	off := 8
	ix.MinTs = int64(binary.LittleEndian.Uint64(b[off:]))
	ix.MaxTs = int64(binary.LittleEndian.Uint64(b[off+8:]))
	ix.typeBits = binary.LittleEndian.Uint64(b[off+16:])
	off += 24
	ix.Count = binary.LittleEndian.Uint32(b[off:])
	plen := binary.LittleEndian.Uint32(b[off+4:])
	off += 8
	if uint64(len(b)) != uint64(off)+uint64(plen)+4 {
		return Index{}, nil, errTruncated
	}
	payload := b[off : off+int(plen)]
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != want {
		return Index{}, nil, errBadCRC
	}
	return ix, payload, nil
}

// iterRecords walks a chunk payload's uvarint-length-prefixed records.
// It is defensive against malformed lengths (the fuzz target feeds it
// arbitrary bytes) even though the CRC normally vouches for structure.
func iterRecords(payload []byte, count uint32, fn func(rec []byte) error) error {
	seen := uint32(0)
	for len(payload) > 0 {
		l, n := binary.Uvarint(payload)
		if n <= 0 || l > uint64(len(payload)-n) {
			return fmt.Errorf("replay: corrupt record length at offset %d", len(payload))
		}
		if err := fn(payload[n : n+int(l)]); err != nil {
			return err
		}
		payload = payload[n+int(l):]
		seen++
	}
	if seen != count {
		return fmt.Errorf("replay: chunk count %d but %d records", count, seen)
	}
	return nil
}

// DecodeRecords decodes every event in a chunk payload against the
// catalog. Events whose type is no longer registered are skipped (the
// catalog may have changed across a restart); structural corruption is
// an error.
func DecodeRecords(payload []byte, count uint32, cat *event.Catalog, fn func(ev *event.Event) bool) error {
	stop := errors.New("stop")
	err := iterRecords(payload, count, func(rec []byte) error {
		ev, n, err := event.DecodeEvent(rec, cat)
		if err != nil {
			if errors.Is(err, event.ErrUnknownType) {
				return nil
			}
			return err
		}
		if n != len(rec) {
			return fmt.Errorf("replay: record has %d trailing bytes", len(rec)-n)
		}
		if !fn(ev) {
			return stop
		}
		return nil
	})
	if errors.Is(err, stop) {
		return nil
	}
	return err
}
