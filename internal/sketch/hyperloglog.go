// Package sketch implements the probabilistic summaries Scrub's query
// language exposes: HyperLogLog for COUNT_DISTINCT (Heule et al., "HLL in
// practice") and the SpaceSaving stream summary for TOP-K (Metwally et al.).
//
// Both sketches are mergeable, which is what lets ScrubCentral combine
// partial summaries across windows without ever holding raw values, and
// both trade bounded memory for bounded, well-characterized error — the
// paper's "accuracy traded for minimal impact" design rule.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"scrub/internal/wire"
)

// HLL is a HyperLogLog cardinality estimator with 2^precision registers.
// The zero value is not usable; construct with NewHLL.
type HLL struct {
	precision uint8
	registers []uint8
}

// Default and allowed precision range. Precision p gives a standard error
// of roughly 1.04/sqrt(2^p): p=14 → ~0.81%.
const (
	MinHLLPrecision     = 4
	MaxHLLPrecision     = 18
	DefaultHLLPrecision = 14
)

// NewHLL creates an estimator with 2^precision registers.
func NewHLL(precision uint8) (*HLL, error) {
	if precision < MinHLLPrecision || precision > MaxHLLPrecision {
		return nil, fmt.Errorf("sketch: HLL precision %d outside [%d, %d]", precision, MinHLLPrecision, MaxHLLPrecision)
	}
	return &HLL{precision: precision, registers: make([]uint8, 1<<precision)}, nil
}

// MustHLL is NewHLL that panics on error.
func MustHLL(precision uint8) *HLL {
	h, err := NewHLL(precision)
	if err != nil {
		panic(err)
	}
	return h
}

// Bytes is what the estimator holds, in bytes: its registers, fixed at
// construction.
func (h *HLL) Bytes() int64 { return int64(unsafe.Sizeof(*h)) + int64(cap(h.registers)) }

// fmix64 is the MurmurHash3 finalizer. Upstream hashes (FNV-1a over short,
// near-sequential keys) are not uniform enough in their high bits, which
// HLL uses for register selection; the finalizer restores avalanche.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// AddHash folds an already-hashed 64-bit item into the sketch. Scrub feeds
// event.Value.Hash() outputs here, so equal values always land identically.
// The input is re-mixed internally, so weakly avalanched hashes are safe.
func (h *HLL) AddHash(x uint64) {
	x = fmix64(x)
	p := h.precision
	idx := x >> (64 - p)
	rest := x<<p | 1<<(p-1) // ensure a terminator bit so rho is bounded
	rho := uint8(bits.LeadingZeros64(rest)) + 1
	if rho > h.registers[idx] {
		h.registers[idx] = rho
	}
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Estimate returns the cardinality estimate, with linear-counting
// small-range correction as in the HLL++ paper.
func (h *HLL) Estimate() uint64 {
	m := len(h.registers)
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha(m) * float64(m) * float64(m) / sum
	// Small-range correction: linear counting when registers are sparse.
	if est <= 2.5*float64(m) && zeros > 0 {
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return uint64(est + 0.5)
}

// Merge folds another sketch into h. Both must share a precision.
func (h *HLL) Merge(o *HLL) error {
	if o == nil {
		return nil
	}
	if h.precision != o.precision {
		return fmt.Errorf("sketch: cannot merge HLL precision %d into %d", o.precision, h.precision)
	}
	for i, r := range o.registers {
		if r > h.registers[i] {
			h.registers[i] = r
		}
	}
	return nil
}

// Reset clears the sketch for reuse.
func (h *HLL) Reset() {
	for i := range h.registers {
		h.registers[i] = 0
	}
}

// CodeHLL codes estimator h in c's mode: its precision byte, then its
// 2^precision registers as they are. Decoding refills h's registers;
// bytes of another precision than h's are refused.
func CodeHLL(c *wire.Coder, h *HLL) {
	p, regs := h.precision, h.registers
	c.U8(&p)
	if p != h.precision {
		c.Failf("HLL precision %d, want %d", p, h.precision)
	}
	c.Raw(&regs, len(h.registers))
	if c.Mode == wire.Decoding && c.Err == nil {
		copy(h.registers, regs) // out of the input
	}
}
