package storage

import (
	"encoding/binary"
	"errors"
)

// Byte-oriented encoding primitives for the compressed (v3) segment block
// format: bounds-checked varint reading, fixed-width bit-packing for
// dictionary indexes and operation codes, and a small dependency-free
// LZ codec for the final byte stream. Everything here decodes defensively —
// a malformed input yields an error, never a panic or an unbounded
// allocation — because segment blocks are checksummed but the checksum is
// itself on-disk data the fuzzer mutates.

// errCodec reports a structurally malformed encoded block; callers wrap it
// into an ErrSegmentCorrupt via corruptf.
var errCodec = errors.New("malformed encoded block")

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// byteReader is a bounds-checked sequential reader over one encoded block.
// Errors latch: after the first malformed read every subsequent read
// returns zero and the caller checks err once at the end.
type byteReader struct {
	buf []byte
	off int
	err bool
}

func (r *byteReader) uvarint() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) svarint() int64 { return unzigzag(r.uvarint()) }

// done reports whether the reader consumed its buffer exactly, with no
// malformed read along the way.
func (r *byteReader) done() bool { return !r.err && r.off == len(r.buf) }

// appendPacked appends vals (each offset by -base) as width-bit
// little-endian codes. width 0 appends nothing: every value equals base.
func appendPacked(dst []byte, vals []uint32, base uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	accBits := 0
	for _, v := range vals {
		acc |= uint64(v-base) << accBits
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpack reads n width-bit codes into out, adding base back. Codes wider
// than the [base, max] range the caller advertises are the caller's to
// validate; unpack only guards the buffer bounds.
func (r *byteReader) unpack(n int, base uint32, width int, out []uint32) {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = base
		}
		return
	}
	if r.err {
		return
	}
	need := (n*width + 7) / 8
	if r.off+need > len(r.buf) {
		r.err = true
		return
	}
	buf := r.buf[r.off : r.off+need]
	r.off += need
	var acc uint64
	accBits := 0
	p := 0
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		for accBits < width {
			acc |= uint64(buf[p]) << accBits
			p++
			accBits += 8
		}
		out[i] = base + uint32(acc&mask)
		acc >>= width
		accBits -= width
	}
}

// LZ codec. Token stream: a control byte 0x00..0x7F introduces a literal
// run of (ctrl+1) bytes; 0x80..0xFF a back-reference of length
// (ctrl&0x7F)+lzMinMatch, followed by the uvarint distance (>= 1) back from
// the current output position. Matches may overlap their own output
// (run-length encoding falls out for free). There is no window limit — a
// block's raw form is bounded by segBlockRows rows, far under any
// practical distance.
const lzMinMatch = 4

// lzMaxMatch is the longest match one token can carry; longer matches emit
// multiple tokens.
const lzMaxMatch = 127 + lzMinMatch

// lzCompress appends the compressed form of src to dst. Greedy matching
// over a 4-byte hash table: small, allocation-free, and effective on the
// residual redundancy varint/delta encoding leaves behind (repeated attr
// deltas, runs of zero fail codes, cycling op patterns).
func lzCompress(dst, src []byte) []byte {
	var table [1 << 12]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(p int) uint32 {
		return binary.LittleEndian.Uint32(src[p:]) * 2654435761 >> 20
	}
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		h := hash(i)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		length := lzMinMatch
		for i+length < len(src) && src[int(cand)+length] == src[i+length] {
			length++
		}
		dst = lzFlushLiterals(dst, src[litStart:i])
		dist := i - int(cand)
		for length >= lzMinMatch {
			l := length
			if l > lzMaxMatch {
				l = lzMaxMatch
			}
			// Never strand a sub-minMatch tail: shrink this token instead.
			if rest := length - l; rest > 0 && rest < lzMinMatch {
				l = length - lzMinMatch
			}
			dst = append(dst, 0x80|byte(l-lzMinMatch))
			dst = binary.AppendUvarint(dst, uint64(dist))
			i += l
			length -= l
		}
		litStart = i
	}
	return lzFlushLiterals(dst, src[litStart:])
}

func lzFlushLiterals(dst, lits []byte) []byte {
	for len(lits) > 0 {
		n := len(lits)
		if n > 128 {
			n = 128
		}
		dst = append(dst, byte(n-1))
		dst = append(dst, lits[:n]...)
		lits = lits[n:]
	}
	return dst
}

// lzDecode decompresses src into dst, which must be pre-sized to the exact
// raw length (the zone map records it). Any mismatch — a truncated token, a
// distance reaching before the output start, output over- or under-run — is
// a codec error; dst is filled left to right so no uninitialized bytes leak
// on failure paths.
func lzDecode(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		ctrl := src[s]
		s++
		if ctrl < 0x80 {
			n := int(ctrl) + 1
			if s+n > len(src) || d+n > len(dst) {
				return errCodec
			}
			copy(dst[d:], src[s:s+n])
			s += n
			d += n
			continue
		}
		length := int(ctrl&0x7F) + lzMinMatch
		dist, n := binary.Uvarint(src[s:])
		if n <= 0 {
			return errCodec
		}
		s += n
		if dist == 0 || dist > uint64(d) || d+length > len(dst) {
			return errCodec
		}
		pos := d - int(dist)
		for k := 0; k < length; k++ {
			dst[d+k] = dst[pos+k]
		}
		d += length
	}
	if d != len(dst) {
		return errCodec
	}
	return nil
}
