package central

import (
	"scrub/internal/event"
	"scrub/internal/slab"
)

// An open window keeps column values — a buffered join tuple's projected
// columns, a raw result row — in their wire form (event.AppendValue), a
// run of a fixed number of values back to back in a slab.Arena. The
// encoding is self-delimiting, so a run needs no stored length, and its
// width is the plan's. DESIGN.md §17.

// packValues appends the wire form of vals to dst as a run of exactly w
// values: a longer vals is cut, a shorter one is padded with Invalid tags
// — what a lookup past its end evaluates to anyway.
func packValues(dst []byte, vals []event.Value, w int) []byte {
	for i := 0; i < w; i++ {
		if i < len(vals) {
			dst = event.AppendValue(dst, vals[i])
		} else {
			dst = append(dst, byte(event.KindInvalid))
		}
	}
	return dst
}

// appendHeader appends n ≤ 8 zero bytes: the room a run's fixed-size header
// is filled into.
func appendHeader(dst []byte, n int) []byte {
	var zero [8]byte
	return append(dst, zero[:n]...)
}

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

// corruptRun is the panic for a run in an arena that does not decode:
// arenas hold only runs packValues wrote or packedLen accepted, so
// nothing but a bug can produce one.
const corruptRun = "central: corrupt packed run in window state: "

// unpackValues decodes the run of len(out) values at the head of b into
// out and returns the run's length. With alias set, string payloads share
// b's memory — for values read back from an arena chunk (written once,
// alive as long as anything points into it) that do not outlive the
// tuple being applied; without, every value owns its memory.
func unpackValues(out []event.Value, b []byte, alias bool) int {
	var str func([]byte) string
	if alias {
		str = slab.String
	}
	n := 0
	for i := range out {
		v, used, err := event.DecodeValueAlias(b[n:], str)
		if err != nil {
			//scrub:allowalloc(cold: only a bug produces a corrupt run)
			panic(corruptRun + err.Error())
		}
		out[i] = v
		n += used
	}
	return n
}

// packedRows walks an arena filled with runs of one shape — hdr bytes,
// then w packed values, not both zero — in append order.
type packedRows struct {
	chunks [][]byte
	k, off int // the next run starts at byte off of chunks[k]
	hdr, w int
	at     uint32 // the address of the run that next returned last
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
	n, err := packedLen(cur[r.hdr:], r.w)
	if err != nil {
		panic(corruptRun + err.Error())
	}
	n += r.hdr
	r.at = slab.Addr(r.k, r.off)
	r.off += n
	return cur[:n:n]
}

// unpack decodes the next run of a headerless arena into out (r.w values
// that own their memory); false after the last.
func (r *packedRows) unpack(out []event.Value) bool {
	if !r.more() {
		return false
	}
	r.off += unpackValues(out, r.chunks[r.k][r.off:], false)
	return true
}
