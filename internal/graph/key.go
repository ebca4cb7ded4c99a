package graph

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a compact, injective binary encoding of v to dst:
// a kind tag, then the payload — the OID, the integer, the float's IEEE
// bits, the boolean, or a length-prefixed string followed (for files)
// by the file type. Distinct values encode differently (Int(1) and
// Float(1) included, which Value.String renders alike), and every
// encoding is self-delimiting, so concatenated keys stay injective.
// The bytes are for map keys only; nothing should print or order by
// them.
func AppendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNode:
		dst = binary.AppendUvarint(dst, uint64(v.oid))
	case KindInt:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindString, KindURL:
		dst = AppendKeyString(dst, v.s)
	case KindFile:
		dst = AppendKeyString(dst, v.s)
		dst = append(dst, byte(v.ft))
	}
	return dst
}

// AppendKeyString appends s with a length prefix, the string form
// AppendKey uses; callers keying on names alongside values use it so
// the whole key stays self-delimiting.
func AppendKeyString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
