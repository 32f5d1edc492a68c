// Package codecsym is golden-test input: a miniature of the transport
// wire codec (writer/reader + AppendEncode/Decode/Name switches) with
// deliberate asymmetries and wiring gaps for the codecsym analyzer.
package codecsym

// Message mirrors transport.Message: the tag method registers a type.
type Message interface{ msgTag() uint8 }

const (
	tagPut uint8 = iota + 1
	tagGet
	tagList
	tagSwap
	tagCount
	tagGrid
	tagMuted
	tagUndispatched
	tagUnnamed
	tagNoDecode
	tagOrphan
	tagInternal
	tagFlip
	tagExtra
)

type Put struct {
	Key string
	Val uint64
}

func (Put) msgTag() uint8 { return tagPut }

type Get struct{ ID uint64 }

func (Get) msgTag() uint8 { return tagGet }

type List struct{ Items []string }

func (List) msgTag() uint8 { return tagList }

// Swap's decode arm reads its fields in the wrong order.
type Swap struct {
	Name string
	N    uint64
}

func (Swap) msgTag() uint8 { return tagSwap }

// Count's decode arm reads one more field than encode writes.
type Count struct{ A, B uint64 }

func (Count) msgTag() uint8 { return tagCount }

// Grid's decode loop reads a different width than the encode loop writes.
type Grid struct{ Items []string }

func (Grid) msgTag() uint8 { return tagGrid }

// Muted is asymmetric too, but the decode arm carries an
// //scrub:allow(codecsym, ...) suppression.
type Muted struct{ S string }

func (Muted) msgTag() uint8 { return tagMuted }

// Undispatched is wired through the codec but no type switch or type
// assertion outside it ever consumes the decoded value.
type Undispatched struct{ V uint64 } // want `message Undispatched is never dispatched`
func (Undispatched) msgTag() uint8   { return tagUndispatched }

// Unnamed is missing from the Name switch.
type Unnamed struct{ V uint64 } // want `message Unnamed is missing from the Name switch`
func (Unnamed) msgTag() uint8   { return tagUnnamed }

// NoDecode has an encode arm but no decode arm.
type NoDecode struct{ V uint64 } // want `message NoDecode has a msgTag but no arm in the decode switch`
func (NoDecode) msgTag() uint8   { return tagNoDecode }

// Orphan has a decode arm but no encode arm.
type Orphan struct{ V uint64 } // want `message Orphan has a msgTag but no arm in the encode switch`
func (Orphan) msgTag() uint8   { return tagOrphan }

// Internal is consumed reflectively, so its missing dispatch site is
// suppressed at the declaration.
//
//scrub:allow(codecsym, consumed reflectively by the test harness)
type Internal struct{ V uint64 }

func (Internal) msgTag() uint8 { return tagInternal }

// Flip's msgTag does not return a named tag constant.
type Flip struct{ V uint64 } // want `message Flip: cannot resolve the tag constant`
func (Flip) msgTag() uint8   { return uint8(250) }

// Extra is encoded and decoded via default-clause helper functions, the
// appendEncodeCoord/decodeCoord shape; the asymmetry hides inside them.
type Extra struct {
	ID   uint64
	Note string
}

func (Extra) msgTag() uint8 { return tagExtra }

// AppendEncode mirrors transport.AppendEncode: tag byte, then one arm
// per message type, with a helper hook in the default clause.
func AppendEncode(dst []byte, m Message) []byte {
	w := &writer{buf: dst}
	w.u8(m.msgTag())
	switch t := m.(type) {
	case Put:
		w.str(t.Key)
		w.u64(t.Val)
	case Get:
		w.u64(t.ID)
	case List:
		w.u64(uint64(len(t.Items)))
		for _, s := range t.Items {
			w.str(s)
		}
	case Swap:
		w.str(t.Name)
		w.u64(t.N)
	case Count:
		w.u64(t.A)
		w.u64(t.B)
	case Grid:
		w.u64(uint64(len(t.Items)))
		for _, s := range t.Items {
			w.str(s)
		}
	case Muted:
		w.str(t.S)
	case Undispatched:
		w.u64(t.V)
	case Unnamed:
		w.u64(t.V)
	case NoDecode:
		w.u64(t.V)
	case Internal:
		w.u64(t.V)
	case Flip:
		w.u64(t.V)
	default:
		appendEncodeExtra(w, m)
	}
	return w.buf
}

func appendEncodeExtra(w *writer, m Message) {
	switch t := m.(type) {
	case Extra:
		w.u64(t.ID)
		w.str(t.Note) // want `codec asymmetry for Extra: encode writes str \(element 2\) that decode never reads`
	}
}

// Decode mirrors transport.Decode: the entry point picks the allocation
// strategy and delegates to the function that holds the tag dispatch.
func Decode(b []byte) (Message, bool) { return decode(b, nil) }

// decode is the tag dispatch, with a helper hook in the default clause.
func decode(b []byte, scratch []uint64) (Message, bool) {
	r := &reader{buf: b}
	_ = scratch
	tag := r.u8()
	var m Message
	switch tag {
	case tagPut:
		m = Put{Key: r.str(), Val: r.u64()}
	case tagGet:
		m = Get{ID: r.u64()}
	case tagList:
		n := r.u64()
		items := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			items = append(items, r.str())
		}
		m = List{Items: items}
	case tagSwap:
		m = Swap{N: r.u64(), Name: r.str()} // want `codec asymmetry for Swap: element 1: encode writes str but decode reads u64`
	case tagCount:
		m = Count{A: r.u64(), B: r.u64()}
		_ = r.u64() // want `codec asymmetry for Count: decode reads u64 \(element 3\) that encode never writes`
	case tagGrid:
		n := r.u64()
		for i := uint64(0); i < n; i++ {
			_ = r.u64() // want `codec asymmetry for Grid: inside repeated group: element 1: encode writes str but decode reads u64`
		}
		m = Grid{}
	case tagMuted:
		_ = r.u64() //scrub:allow(codecsym, legacy shim keeps the old width)
		m = Muted{}
	case tagUndispatched:
		m = Undispatched{V: r.u64()}
	case tagUnnamed:
		m = Unnamed{V: r.u64()}
	case tagOrphan:
		m = Orphan{V: r.u64()}
	case tagInternal:
		m = Internal{V: r.u64()}
	case uint8(250):
		m = Flip{V: r.u64()}
	default:
		return decodeExtra(r, tag)
	}
	if r.err {
		return nil, false
	}
	return m, true
}

func decodeExtra(r *reader, tag uint8) (Message, bool) {
	switch tag {
	case tagExtra:
		return Extra{ID: r.u64()}, !r.err
	}
	return nil, false
}

// Name mirrors transport.Name, with its own default-clause helper.
func Name(m Message) string {
	switch m.(type) {
	case Put:
		return "Put"
	case Get:
		return "Get"
	case List:
		return "List"
	case Swap:
		return "Swap"
	case Count:
		return "Count"
	case Grid:
		return "Grid"
	case Muted:
		return "Muted"
	case Undispatched:
		return "Undispatched"
	case NoDecode:
		return "NoDecode"
	case Orphan:
		return "Orphan"
	case Internal:
		return "Internal"
	case Flip:
		return "Flip"
	default:
		return nameExtra(m)
	}
}

func nameExtra(m Message) string {
	switch m.(type) {
	case Extra:
		return "Extra"
	}
	return "?"
}
