package central

import (
	"bytes"

	"scrub/internal/event"
	"scrub/internal/slab"
)

// An open window keeps column values — a buffered join tuple's projected
// columns, a raw result row — in their wire form (event.AppendValue), a
// run of a fixed number of values back to back in a slab.Arena. The
// encoding is self-delimiting, so a run needs no stored length, and its
// width is the plan's. DESIGN.md §17.

// packedLen returns the length in bytes of the run of w values at the
// head of b. It accepts exactly what unpackValues decodes: it is the
// decoder, run for the lengths. (String payloads are aliased, not copied,
// and dropped with the value.)
func packedLen(b []byte, w int) (int, error) {
	n := 0
	for i := 0; i < w; i++ {
		_, used, err := event.DecodeValueAlias(b[n:], slab.String)
		if err != nil {
			return 0, err
		}
		n += used
	}
	return n, nil
}

// Inside a join arena (and nowhere else: packedLen, which DecodePartial
// and packedRows measure with, refuses it), a string the window already
// holds inline may be written as the one tag byte strRef + s: a reference
// to the copy whose arena address + 1 slot s of the window's strs table
// holds, below the top byte of the string's hash. The first string to
// hash to a free slot in its probe claims it for the window's life; a
// string that finds its own text in its probe is written as the ref,
// anything else inline. The hash byte lets a probe pass another string's
// slot without reading the arena; a copy at an address that does not fit
// under it (past the arena's first 16 MiB) claims nothing. DESIGN.md §17.
const (
	strRef   = 0x40      // the first ref tag
	strSlots = 64        // slots in a window's table
	strProbe = 4         // slots a string looks at, from its hash's
	strAddr  = 1<<24 - 1 // a slot's address bits
)

// strAt is the arena address of the string a claimed slot holds.
func strAt(slot uint32) uint32 { return slot&strAddr - 1 }

// The ref tags lie above every event.Kind and inside one byte.
const (
	_ uint8 = strRef - uint8(event.KindList) - 1
	_ uint8 = strRef + strSlots - 1
)

// packJoin appends the wire form of vals to dst as a run of exactly w
// values: a longer vals is cut, a shorter one is padded with Invalid tags
// — what a lookup past its end evaluates to anyway — and a string the
// window holds inline already is written as its ref. Each string that
// found a free slot instead is appended to claims as its hash byte<<24 |
// its offset in dst<<6 | the slot: once the run is in the arena,
// claimStrings records where the copy lies.
func (ws *winState) packJoin(dst []byte, vals []event.Value, w int, claims []uint32) ([]byte, []uint32) {
	for i := 0; i < w; i++ {
		if i >= len(vals) {
			dst = append(dst, byte(event.KindInvalid))
			continue
		}
		at := len(dst)
		dst = event.AppendValue(dst, vals[i])
		if vals[i].Kind() != event.KindString {
			continue
		}
		strs := ws.stringSlots()
		enc, h := dst[at:], hashKey(dst[at:])
		fp := uint32(h>>56) << 24
		for j := uint64(0); j < strProbe; j++ {
			s := (h + j) % strSlots
			if strs[s] == 0 {
				claims = append(claims, fp|uint32(at)<<6|uint32(s))
				break
			}
			// The stored value is self-delimiting: a prefix is the value.
			if strs[s]&^strAddr == fp && bytes.HasPrefix(ws.arena.Tail(strAt(strs[s])), enc) {
				dst[at] = strRef + byte(s)
				dst = dst[:at+1]
				break
			}
		}
	}
	return dst, claims
}

// stringSlots returns the window's string slots, making them for the
// first string.
//
//scrub:allowalloc(once per window that buffers a string)
func (ws *winState) stringSlots() *[strSlots]uint32 {
	if ws.strs == nil {
		ws.strs = new([strSlots]uint32)
	}
	return ws.strs
}

// claimStrings gives each claimed slot still free the address of its
// string in the run just appended at at. A run longer than
// slab.ArenaMaxChunk claims none: it has a chunk of its own, and an offset
// in it does not fit an address.
func (ws *winState) claimStrings(at uint32, run []byte, claims []uint32) {
	if len(run) > slab.ArenaMaxChunk {
		return
	}
	for _, c := range claims {
		addr := at + c>>6&(slab.ArenaMaxChunk-1) + 1
		// Two strings of one run may claim one slot.
		if s := c % strSlots; ws.strs[s] == 0 && addr <= strAddr {
			ws.strs[s] = c&^strAddr | addr
		}
	}
}

// unpackJoin decodes the run of w join values at the head of b into out,
// refs resolved and string payloads aliasing the arena, and returns the
// run's length.
func (ws *winState) unpackJoin(out []event.Value, b []byte, w int) int {
	n := 0
	for i := 0; i < w; i++ {
		if s := b[n] - strRef; s < strSlots {
			// The copy is a string packJoin wrote inline: it decodes.
			out[i], _, _ = event.DecodeValueAlias(ws.arena.Tail(strAt(ws.strs[s])), slab.String)
			n++
			continue
		}
		v, used, err := event.DecodeValueAlias(b[n:], slab.String)
		if err != nil {
			//scrub:allowalloc(cold: only a bug produces a corrupt run)
			panic(corruptRun + err.Error())
		}
		out[i] = v
		n += used
	}
	return n
}

// corruptRun is the panic for a run in an arena that does not decode:
// arenas hold only runs packJoin or accumulate wrote or packedLen
// accepted, so nothing but a bug can produce one.
const corruptRun = "central: corrupt packed run in window state: "

// unpackValues decodes the run of len(out) values at the head of b into
// out, every value owning its memory, and returns the run's length. (A
// probe reads join runs aliased, through unpackJoin.)
func unpackValues(out []event.Value, b []byte) int {
	n := 0
	for i := range out {
		v, used, err := event.DecodeValue(b[n:])
		if err != nil {
			//scrub:allowalloc(cold: only a bug produces a corrupt run)
			panic(corruptRun + err.Error())
		}
		out[i] = v
		n += used
	}
	return n
}

// packedRows walks an arena of runs of w packed values, each behind a
// slab.Index header when threaded, in append order.
type packedRows struct {
	chunks   [][]byte
	k, off   int // the next run starts at byte off of chunks[k]
	threaded bool
	w        int
}

func rowsOf(a *slab.Arena, w int) packedRows { return packedRows{chunks: a.Chunks(), w: w} }

// more moves to the chunk holding the next run; false after the last run.
func (r *packedRows) more() bool {
	for r.k < len(r.chunks) && r.off == len(r.chunks[r.k]) {
		r.k, r.off = r.k+1, 0
	}
	return r.k < len(r.chunks)
}

// next returns the next run's bytes, nil after the last.
func (r *packedRows) next() []byte {
	if !r.more() {
		return nil
	}
	cur := r.chunks[r.k][r.off:]
	hdr := 0
	if r.threaded {
		hdr = slab.ParseHeader(cur).Len
	}
	n, err := packedLen(cur[hdr:], r.w)
	if err != nil {
		panic(corruptRun + err.Error())
	}
	n += hdr
	r.off += n
	return cur[:n:n]
}

// unpack decodes the next run of a headerless arena into out (r.w values
// that own their memory); false after the last.
func (r *packedRows) unpack(out []event.Value) bool {
	if !r.more() {
		return false
	}
	r.off += unpackValues(out, r.chunks[r.k][r.off:])
	return true
}
