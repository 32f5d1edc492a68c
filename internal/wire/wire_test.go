package wire

import (
	"reflect"
	"testing"

	"scrub/internal/event"
)

// fields holds one field for each primitive, described once by code.
type fields struct {
	u8         uint8
	u32        uint32
	u64        uint64
	i64        int64
	f64        float64
	b, nz      bool
	uv         uint64
	n          int
	s          string
	bs, alias  []byte
	raw        []byte
	v          event.Value
	list       []string
	kept, none []uint64
}

func (f *fields) code(c *Coder) {
	c.U8(&f.u8)
	c.U32(&f.u32)
	c.U64(&f.u64)
	c.I64(&f.i64)
	c.F64(&f.f64)
	c.Bool(&f.b)
	c.NonZero(&f.nz)
	c.Uvarint(&f.uv)
	c.Int(&f.n)
	c.Str(&f.s)
	c.Bytes(&f.bs)
	c.BytesAlias(&f.alias)
	c.Raw(&f.raw, 3)
	c.Value(&f.v)
	Length(c, &f.list, EmptyNil, "implausible list")
	for i := range f.list {
		c.Str(&f.list[i])
	}
	Length(c, &f.kept, EmptyKept, "implausible list")
	Length(c, &f.none, EmptyNil, "implausible list")
}

// TestModesAgree walks one description in the three modes: sizing counts
// the bytes encoding writes, decoding reads back every field and consumes
// them all, and every truncation of the bytes fails to decode.
func TestModesAgree(t *testing.T) {
	in := fields{
		u8: 7, u32: 1 << 20, u64: 1<<63 + 5, i64: -42, f64: -1.5,
		b: true, nz: true, uv: 300, n: 1 << 40, s: "san jose",
		bs: []byte{1, 2}, alias: []byte("ab"), raw: []byte{9, 8, 7},
		v: event.Str("x"), list: []string{"a", "bc"}, kept: []uint64{},
	}
	var enc Coder
	in.code(&enc)
	size := Coder{Mode: Sizing}
	in.code(&size)
	if enc.Err != nil || size.N != len(enc.Buf) {
		t.Fatalf("encoded %d bytes (%v), sized %d", len(enc.Buf), enc.Err, size.N)
	}
	var out fields
	dec := Coder{Mode: Decoding, Buf: enc.Buf}
	out.code(&dec)
	if dec.Err != nil || dec.Pos != len(enc.Buf) {
		t.Fatalf("decode: %v after %d of %d bytes", dec.Err, dec.Pos, len(enc.Buf))
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded\n %+v\nencoded\n %+v", out, in)
	}
	for cut := 0; cut < len(enc.Buf); cut++ {
		var f fields
		c := Coder{Mode: Decoding, Buf: enc.Buf[:cut]}
		f.code(&c)
		if c.Err == nil {
			t.Fatalf("a truncation to %d bytes decoded", cut)
		}
	}
}
