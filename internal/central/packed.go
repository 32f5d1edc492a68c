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
			panic(corruptRun + err.Error())
		}
		out[i] = v
		n += used
	}
	return n
}

// packedRows walks an arena filled with runs of one width w > 0, in
// append order.
type packedRows struct {
	chunks [][]byte // not yet started
	cur    []byte   // the rest of the chunk being walked
	w      int
}

func rowsOf(a *slab.Arena, w int) packedRows { return packedRows{chunks: a.Chunks(), w: w} }

// more moves to the chunk holding the next run; false after the last run.
func (r *packedRows) more() bool {
	for len(r.cur) == 0 {
		if len(r.chunks) == 0 {
			return false
		}
		r.cur, r.chunks = r.chunks[0], r.chunks[1:]
	}
	return true
}

// next returns the next run's bytes, nil after the last.
func (r *packedRows) next() []byte {
	if !r.more() {
		return nil
	}
	n, err := packedLen(r.cur, r.w)
	if err != nil {
		panic(corruptRun + err.Error())
	}
	row := r.cur[:n:n]
	r.cur = r.cur[n:]
	return row
}

// unpack decodes the next run into out (r.w values that own their
// memory); false after the last.
func (r *packedRows) unpack(out []event.Value) bool {
	if !r.more() {
		return false
	}
	r.cur = r.cur[unpackValues(out, r.cur, false):]
	return true
}
