package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"
	"strconv"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// Block encoding and attribute zone maps for sealed segments (layout in
// segment.go):
//
//   - Compressed column blocks. Each block is byte-encoded — uvarint
//     start-time deltas, zigzag-varint residuals for the remaining numeric
//     columns, bit-packed dictionary indexes and op codes — then the whole
//     encoded block runs through the small LZ codec in blockcodec.go when
//     that actually shrinks it. Blocks are therefore variable-length, so
//     each zone records its block's offset, stored length and raw
//     (pre-compression) length, all cross-checked at meta decode.
//
//   - Attribute zone maps. Each zone carries two 64-bit trigram filters,
//     one over the attribute values of the block's subject entities and one
//     over its objects (including the synthesized id/agentid/type
//     pseudo-attributes). A LIKE or equality predicate contributes required
//     substrings (pred.RequiredSubstrings); a block whose filter provably
//     lacks one of their trigrams cannot contain a match and is skipped —
//     the same pruning time and op predicates already get. Entity ids the
//     writer cannot resolve saturate the filter rather than weaken it.

// triMask returns the trigram filter bits for every 3-byte window of s.
// The filter is a plain 64-bit Bloom filter with one hash: false positives
// only ever make pruning less effective, never wrong.
func triMask(s string) uint64 {
	var m uint64
	for i := 0; i+3 <= len(s); i++ {
		h := (uint32(s[i])*251+uint32(s[i+1]))*251 + uint32(s[i+2])
		h *= 2654435761
		m |= 1 << (h >> 26)
	}
	return m
}

// entityTriMask unions the trigram filters of every attribute value the
// predicate language can observe on e — the Attrs map plus the synthesized
// id/agentid/type pseudo-attributes (see types.Entity.Attr).
func entityTriMask(e *types.Entity) uint64 {
	m := triMask(strconv.FormatUint(uint64(e.ID), 10))
	m |= triMask(strconv.Itoa(e.AgentID))
	m |= triMask(e.Type.String())
	for _, v := range e.Attrs {
		m |= triMask(v)
	}
	return m
}

// requiredTriMask converts a predicate's required substrings into the
// trigram bits every matching entity must exhibit. Zero means the predicate
// offers no attribute pruning (no substring of length >= 3 is required).
func requiredTriMask(p pred.Pred) uint64 {
	var m uint64
	for _, s := range pred.RequiredSubstrings(p) {
		if len(s) >= 3 {
			m |= triMask(s)
		}
	}
	return m
}

// buildPartition encodes one sorted partition into its meta and data
// regions. resolve maps entity ids to entities for the
// attribute filters; unresolvable ids saturate their block's filter.
func buildPartition(k partKey, evs []types.Event, resolve func(types.EntityID) *types.Entity) (partBuild, error) {
	n := len(evs)
	idSet := make(map[types.EntityID]struct{}, n)
	for i := range evs {
		idSet[evs[i].Subject] = struct{}{}
		idSet[evs[i].Object] = struct{}{}
	}
	dict := make([]types.EntityID, 0, len(idSet))
	for id := range idSet {
		dict = append(dict, id)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	slot := make(map[types.EntityID]uint32, len(dict))
	for i, id := range dict {
		slot[id] = uint32(i)
	}

	// Per-dictionary-entry attribute filters, computed once and reused by
	// every block the entity appears in. ^0 marks an unresolvable id.
	entMask := make([]uint64, len(dict))
	for i, id := range dict {
		if e := resolve(id); e != nil {
			entMask[i] = entityTriMask(e)
		} else {
			entMask[i] = ^uint64(0)
		}
	}

	subjPos := make([][]uint32, len(dict))
	objPos := make([][]uint32, len(dict))
	for i := range evs {
		s, o := slot[evs[i].Subject], slot[evs[i].Object]
		subjPos[s] = append(subjPos[s], uint32(i))
		objPos[o] = append(objPos[o], uint32(i))
	}

	nBlocks := (n + segBlockRows - 1) / segBlockRows
	zones := make([]segZone, 0, nBlocks)
	var data []byte
	var rawEnc, lzEnc []byte
	for lo := 0; lo < n; lo += segBlockRows {
		hi := lo + segBlockRows
		if hi > n {
			hi = n
		}
		block := evs[lo:hi]
		z := segZone{
			count:    len(block),
			minStart: block[0].Start,
			maxStart: block[len(block)-1].Start,
			minSubj:  slot[block[0].Subject],
			minObj:   slot[block[0].Object],
		}
		z.maxSubj, z.maxObj = z.minSubj, z.minObj
		for i := range block {
			ev := &block[i]
			z.ops = z.ops.Add(ev.Op)
			s, o := slot[ev.Subject], slot[ev.Object]
			if s < z.minSubj {
				z.minSubj = s
			}
			if s > z.maxSubj {
				z.maxSubj = s
			}
			if o < z.minObj {
				z.minObj = o
			}
			if o > z.maxObj {
				z.maxObj = o
			}
			z.subjTri |= entMask[s]
			z.objTri |= entMask[o]
		}
		if delta := z.maxStart - z.minStart; delta < 0 || delta > int64(^uint32(0)) {
			return partBuild{}, fmt.Errorf("storage: segment: partition (%d,%d) start span %d overflows delta encoding", k.agent, k.day, delta)
		}

		rawEnc = encodeBlock(rawEnc[:0], block, &z, slot)
		if len(rawEnc) > len(block)*segMaxRowEnc {
			return partBuild{}, fmt.Errorf("storage: segment: partition (%d,%d) block encoding %d bytes exceeds bound", k.agent, k.day, len(rawEnc))
		}
		lzEnc = lzCompress(lzEnc[:0], rawEnc)
		z.dataOff = uint64(len(data))
		z.rawLen = uint32(len(rawEnc))
		var stored []byte
		if len(lzEnc) < len(rawEnc) {
			data = append(data, 1)
			stored = lzEnc
		} else {
			data = append(data, 0)
			stored = rawEnc
		}
		data = append(data, stored...)
		z.dataLen = uint32(1 + len(stored))
		z.crc = crc32.Checksum(data[z.dataOff:uint64(len(data))], castagnoli)
		zones = append(zones, z)
	}

	// Meta region: dict | zones | bounds | posts.
	meta := make([]byte, 0, len(dict)*8+nBlocks*segZoneBytes+(2*len(dict)+1)*4+2*n*4)
	for _, id := range dict {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(id))
	}
	for i := range zones {
		z := &zones[i]
		meta = binary.LittleEndian.AppendUint32(meta, uint32(z.count))
		meta = binary.LittleEndian.AppendUint32(meta, z.crc)
		meta = binary.LittleEndian.AppendUint64(meta, uint64(z.minStart))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(z.maxStart))
		meta = binary.LittleEndian.AppendUint16(meta, uint16(z.ops))
		meta = binary.LittleEndian.AppendUint32(meta, z.minSubj)
		meta = binary.LittleEndian.AppendUint32(meta, z.maxSubj)
		meta = binary.LittleEndian.AppendUint32(meta, z.minObj)
		meta = binary.LittleEndian.AppendUint32(meta, z.maxObj)
		meta = binary.LittleEndian.AppendUint64(meta, z.subjTri)
		meta = binary.LittleEndian.AppendUint64(meta, z.objTri)
		meta = binary.LittleEndian.AppendUint64(meta, z.dataOff)
		meta = binary.LittleEndian.AppendUint32(meta, z.dataLen)
		meta = binary.LittleEndian.AppendUint32(meta, z.rawLen)
	}
	bound := uint32(0)
	meta = binary.LittleEndian.AppendUint32(meta, bound)
	for i := range dict {
		bound += uint32(len(subjPos[i]))
		meta = binary.LittleEndian.AppendUint32(meta, bound)
		bound += uint32(len(objPos[i]))
		meta = binary.LittleEndian.AppendUint32(meta, bound)
	}
	for i := range dict {
		for _, p := range subjPos[i] {
			meta = binary.LittleEndian.AppendUint32(meta, p)
		}
		for _, p := range objPos[i] {
			meta = binary.LittleEndian.AppendUint32(meta, p)
		}
	}

	return partBuild{
		info: segPartInfo{
			key:      k,
			nEvents:  n,
			nBlocks:  nBlocks,
			nDict:    len(dict),
			metaCRC:  crc32.Checksum(meta, castagnoli),
			minStart: evs[0].Start,
			maxStart: evs[n-1].Start,
		},
		meta: meta,
		data: data,
	}, nil
}

// opWidth derives the bit width of the packed op column from a zone's op
// set; writer and reader must agree, so both call this.
func opWidth(ops types.OpSet) int {
	maxOp := bits.Len16(uint16(ops)) - 1
	return bits.Len(uint(maxOp))
}

// encodeBlock appends the raw (pre-compression) encoding of one sorted
// block to dst. Columns are stored in order starts, ends, ids, seqs,
// amounts, fail codes, subjects, objects, ops; each column picks the cheapest
// residual its zone metadata lets the reader undo: start times as uvarint
// deltas off the zone minimum, ends relative to their row's start, ids and
// seqs as delta chains (both ascend in practice), amounts and fail codes as
// plain zigzag varints, dictionary indexes bit-packed against the zone's
// index range, op codes bit-packed against the zone's op set.
func encodeBlock(dst []byte, block []types.Event, z *segZone, slot map[types.EntityID]uint32) []byte {
	prevStart := z.minStart
	for i := range block {
		dst = binary.AppendUvarint(dst, uint64(block[i].Start-prevStart))
		prevStart = block[i].Start
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(block[i].End-block[i].Start))
	}
	prev := int64(0)
	for i := range block {
		v := int64(block[i].ID)
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	prev = 0
	for i := range block {
		v := int64(block[i].Seq)
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(block[i].Amount))
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(int64(block[i].FailCode)))
	}
	idx := make([]uint32, len(block))
	for i := range block {
		idx[i] = slot[block[i].Subject]
	}
	dst = appendPacked(dst, idx, z.minSubj, bits.Len32(z.maxSubj-z.minSubj))
	for i := range block {
		idx[i] = slot[block[i].Object]
	}
	dst = appendPacked(dst, idx, z.minObj, bits.Len32(z.maxObj-z.minObj))
	for i := range block {
		idx[i] = uint32(block[i].Op)
	}
	return appendPacked(dst, idx, 0, opWidth(z.ops))
}

// decodeBlock verifies and decodes block b of a partition into cols:
// checksum over the stored bytes, exact raw length after decompression,
// exact consumption by the column decoders, and every zone promise (start
// monotonicity and range, dictionary-index range, op-set membership)
// re-checked on the decoded values — so a zone map inconsistent with its
// block is a typed corruption error, not a silently wrong prune.
func (sf *segmentFile) decodeBlock(pi *segPart, m *segMeta, b int, cols *blockCols) error {
	if err := sf.ensureMapped(); err != nil {
		return err
	}
	at := func(format string, args ...any) error {
		return corruptf(sf.path, "partition (%d,%d) block %d: %s", pi.key.agent, pi.key.day, b, fmt.Sprintf(format, args...))
	}
	z := &m.zones[b]
	off := pi.dataOff + z.dataOff
	end := off + uint64(z.dataLen)
	if end > uint64(len(sf.data)) {
		return at("exceeds mapped size %d", len(sf.data))
	}
	stored := sf.data[off:end]
	if crc32.Checksum(stored, castagnoli) != z.crc {
		return at("checksum mismatch")
	}
	payload := stored[1:]
	var raw []byte
	switch stored[0] {
	case 0:
		if len(payload) != int(z.rawLen) {
			return at("raw block length %d, want %d", len(payload), z.rawLen)
		}
		raw = payload
	case 1:
		if cap(cols.enc) < int(z.rawLen) {
			cols.enc = make([]byte, z.rawLen)
		}
		raw = cols.enc[:z.rawLen]
		if err := lzDecode(raw, payload); err != nil {
			return at("block codec: %v", err)
		}
	default:
		return at("unknown block encoding %d", stored[0])
	}
	if uint16(z.ops) == 0 {
		return at("empty op set for %d rows", z.count)
	}

	n := z.count
	cols.reset(n, pi.key.agent)
	r := byteReader{buf: raw}
	span := uint64(z.maxStart - z.minStart)
	cur := z.minStart
	for i := 0; i < n; i++ {
		d := r.uvarint()
		if d > span {
			return at("row %d: start outside zone time range", i)
		}
		cur += int64(d)
		if cur > z.maxStart || cur < z.minStart {
			return at("row %d: start outside zone time range", i)
		}
		cols.starts[i] = cur
	}
	for i := 0; i < n; i++ {
		cols.ends[i] = cols.starts[i] + r.svarint()
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.svarint()
		cols.ids[i] = prev
	}
	prev = 0
	for i := 0; i < n; i++ {
		prev += r.svarint()
		cols.seqs[i] = prev
	}
	for i := 0; i < n; i++ {
		cols.amounts[i] = r.svarint()
	}
	for i := 0; i < n; i++ {
		cols.fails[i] = r.svarint()
	}
	r.unpack(n, z.minSubj, bits.Len32(z.maxSubj-z.minSubj), cols.subj)
	r.unpack(n, z.minObj, bits.Len32(z.maxObj-z.minObj), cols.obj)
	if cap(cols.packScratch) < n {
		cols.packScratch = make([]uint32, n)
	}
	opsRaw := cols.packScratch[:n]
	r.unpack(n, 0, opWidth(z.ops), opsRaw)
	if !r.done() {
		return at("malformed block encoding")
	}
	for i := 0; i < n; i++ {
		if s := cols.subj[i]; s < z.minSubj || s > z.maxSubj {
			return at("row %d: out-of-range dictionary index %d", i, s)
		}
		if o := cols.obj[i]; o < z.minObj || o > z.maxObj {
			return at("row %d: out-of-range dictionary index %d", i, o)
		}
		op := types.Op(opsRaw[i])
		if opsRaw[i] > 15 || !z.ops.Contains(op) {
			return at("row %d: operation %d outside zone op set", i, opsRaw[i])
		}
		cols.ops[i] = op
	}
	return nil
}
