package agg

import (
	"encoding/binary"
	"fmt"
	"math"

	"scrub/internal/event"
	"scrub/internal/sketch"
)

// State codec: serialize an aggregator's accumulated state so a sharded
// ScrubCentral can ship per-shard partials to a coordinator for merging.
// Numeric state travels as raw IEEE-754 bits and sketches use their own
// binary forms, so decode(encode(a)) merges and renders bit-identically
// to a. The spec is not encoded — the decoder is handed the plan's Spec
// for the same aggregate slot, exactly like Merge pairs partials by slot.

// AppendState appends a's accumulated state to dst.
func AppendState(dst []byte, a Aggregator) ([]byte, error) {
	switch ag := a.(type) {
	case *countAgg:
		return binary.AppendUvarint(dst, ag.n), nil
	case *countStarAgg:
		return binary.AppendUvarint(dst, ag.n), nil
	case *sumAgg:
		dst = binary.AppendUvarint(dst, ag.n)
		dst = appendU64(dst, uint64(ag.intSum))
		dst = appendU64(dst, math.Float64bits(ag.fltSum))
		return appendBool(dst, ag.isFloat), nil
	case *avgAgg:
		dst = binary.AppendUvarint(dst, ag.n)
		return appendU64(dst, math.Float64bits(ag.sum)), nil
	case *extremeAgg:
		dst = binary.AppendUvarint(dst, ag.n)
		if ag.n == 0 {
			return dst, nil
		}
		return event.AppendValue(dst, ag.best), nil
	case *topKAgg:
		dst = binary.AppendUvarint(dst, ag.n)
		return ag.ss.AppendBinary(dst), nil
	case *distinctAgg:
		dst = binary.AppendUvarint(dst, ag.n)
		return ag.hll.AppendBinary(dst), nil
	default:
		return nil, fmt.Errorf("agg: cannot encode state of %T", a)
	}
}

// decodeInto loads state serialized by AppendState into a freshly carved
// aggregator of the same spec, returning the bytes consumed.
func decodeInto(a Aggregator, b []byte) (int, error) {
	n64, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, fmt.Errorf("agg: decode state: bad count")
	}
	n := sz
	switch ag := a.(type) {
	case *countAgg:
		ag.n = n64
		return n, nil
	case *countStarAgg:
		ag.n = n64
		return n, nil
	case *sumAgg:
		if len(b) < n+17 {
			return 0, fmt.Errorf("agg: decode state: short sum")
		}
		ag.n = n64
		ag.intSum = int64(binary.LittleEndian.Uint64(b[n:]))
		ag.fltSum = math.Float64frombits(binary.LittleEndian.Uint64(b[n+8:]))
		ag.isFloat = b[n+16] != 0
		return n + 17, nil
	case *avgAgg:
		if len(b) < n+8 {
			return 0, fmt.Errorf("agg: decode state: short avg")
		}
		ag.n = n64
		ag.sum = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		return n + 8, nil
	case *extremeAgg:
		ag.n = n64
		if n64 == 0 {
			return n, nil
		}
		v, used, err := event.DecodeValue(b[n:])
		if err != nil {
			return 0, fmt.Errorf("agg: decode state: extreme: %w", err)
		}
		ag.best = v
		return n + used, nil
	case *topKAgg:
		ss, used, err := sketch.DecodeSpaceSaving(b[n:])
		if err != nil {
			return 0, fmt.Errorf("agg: decode state: top-k: %w", err)
		}
		ag.n = n64
		ag.ss = ss
		return n + used, nil
	case *distinctAgg:
		hll, used, err := sketch.DecodeHLL(b[n:])
		if err != nil {
			return 0, fmt.Errorf("agg: decode state: distinct: %w", err)
		}
		ag.n = n64
		ag.hll = hll
		return n + used, nil
	default:
		return 0, fmt.Errorf("agg: cannot decode state of %T", a)
	}
}

func appendU64(dst []byte, x uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	return append(dst, buf[:]...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
