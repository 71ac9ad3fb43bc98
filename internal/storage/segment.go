package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Segment files are the immutable, compacted form of a WAL sequence range:
// one file per compaction, internally partitioned by (agent, UTC day)
// exactly like the in-memory store, with each partition's events sorted by
// (Start, Seq) and stored column by column for the scan path:
//
//   - Events live in blocks of up to segBlockRows rows. Each block stores
//     its columns contiguously, byte-encoded (see encodeBlock) and run
//     through the LZ codec in blockcodec.go when that shrinks them.
//   - Subject/object entity ids are dictionary-encoded per partition: the
//     columns hold indexes into a sorted id dictionary, and the posting
//     lists are slices of one shared position array addressed through a
//     bounds table — no per-entity map materialization on load.
//   - Every block carries a zone map — min/max start time, an OpSet bitmap,
//     the min/max dictionary index of its subjects and objects, and trigram
//     filters over its entities' attribute values — letting a query skip
//     whole blocks its predicates cannot match without reading them.
//
// The file is opened header-and-directory-only — O(partitions), not
// O(events), so a server with months of segments starts fast — and the
// payload is memory-mapped read-only on first use: WarmUp maps the file,
// and per-partition metadata (dictionary, zones, postings) decodes lazily
// on first scan of that partition. Cold queries therefore touch only the
// blocks their windows and predicates select.
//
// On-disk layout (integers little-endian):
//
//	magic "AIQLSEG3" (8)
//	firstSeq u64  lastSeq u64         — the WAL range this file covers
//	nParts u32    nEntities u32
//	entityOff u64 entityLen u64 entityCRC u32
//	dirCRC u32                        — CRC-32C of the directory bytes
//	directory: nParts × {agent i64, day i64, nEvents u32, nBlocks u32,
//	                     nDict u32, metaCRC u32, minStart i64, maxStart i64,
//	                     metaOff u64, metaLen u64, dataOff u64, dataLen u64}
//	per-partition meta region:
//	    dict      nDict × u64          (sorted ascending entity ids)
//	    zones     nBlocks × 74 bytes   {count u32, crc u32, minStart i64,
//	                                    maxStart i64, ops u16, minSubj u32,
//	                                    maxSubj u32, minObj u32, maxObj u32,
//	                                    subjTri u64, objTri u64, dataOff u64,
//	                                    dataLen u32, rawLen u32}
//	    bounds    (2·nDict+1) × u32    (posting-list boundaries)
//	    posts     2·nEvents × u32      (event positions; subject list of
//	                                    dict entry i is posts[bounds[2i]:
//	                                    bounds[2i+1]], object list is
//	                                    posts[bounds[2i+1]:bounds[2i+2]])
//	per-partition data region: nBlocks × stored block, each a flag byte
//	    (0 = raw, 1 = LZ) then the payload; the zone's crc covers exactly
//	    these stored bytes, dataOff/dataLen locate them in the region and
//	    rawLen is the payload's length before compression
//	entity block: nEntities × entity (codec.go)
//
// Every length in the directory is bounded by the counts next to it, and
// the zones' block offsets must tile the data region exactly, so a
// corrupted directory or zone is caught by consistency checks rather than
// surfacing later as a misaligned read or an over-allocation.
//
// Files are named seg-<firstSeq>-<lastSeq>.seg (16 hex digits each) and
// written via a .tmp + fsync + rename dance: a crash leaves either no
// segment (the WAL still covers the range) or a complete one, never a
// half-written file that parses.

const (
	segMagic     = "AIQLSEG3"
	segHeaderLen = 8 + 8 + 8 + 4 + 4 + 8 + 8 + 4 + 4
	segDirEntry  = 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8
	segZoneBytes = 4 + 4 + 8 + 8 + 2 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4

	// segBlockRows is the zone-map granularity: rows per column block.
	segBlockRows = 1024

	// segMaxRowEnc bounds the encoded (pre-compression) size of one row:
	// 5 (start uvarint) + 5×10 (svarint columns) + 4+4 (packed dict
	// indexes) + 1 (packed op, worst case whole byte). Meta decode rejects
	// any zone advertising more — the OOM guard for lazy block decode.
	segMaxRowEnc = 64
)

// ErrSegmentCorrupt is wrapped by every error reporting on-disk segment
// corruption (bad checksum, impossible count, out-of-range index…), so
// callers can distinguish data damage from I/O failure with errors.Is.
var ErrSegmentCorrupt = errors.New("storage: segment corrupt")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
}

// segZone is one block's zone map. Besides the pruning bounds it records
// the block's position in the partition data region: compressed blocks are
// variable-length, so offsets cannot be derived from row counts.
type segZone struct {
	count    int
	crc      uint32
	minStart int64
	maxStart int64
	ops      types.OpSet
	minSubj  uint32
	maxSubj  uint32
	minObj   uint32
	maxObj   uint32
	subjTri  uint64 // trigram filter over subject entities' attribute values
	objTri   uint64 // trigram filter over object entities' attribute values
	dataOff  uint64 // block offset relative to the partition data region
	dataLen  uint32 // stored (possibly compressed) block length
	rawLen   uint32 // encoded length before byte compression
}

// segMeta is a partition's decoded metadata: everything a scan needs to
// decide which blocks to touch, plus the posting lists for index probes.
type segMeta struct {
	dict   []types.EntityID // sorted ascending
	zones  []segZone
	bounds []uint32
	posts  []uint32
}

// subjectPostings returns the event positions for dict entry i as subject.
func (m *segMeta) subjectPostings(i int) []uint32 {
	return m.posts[m.bounds[2*i]:m.bounds[2*i+1]]
}

// objectPostings returns the event positions for dict entry i as object.
func (m *segMeta) objectPostings(i int) []uint32 {
	return m.posts[m.bounds[2*i+1]:m.bounds[2*i+2]]
}

// dictIndex returns the dictionary slot of id, or -1.
func (m *segMeta) dictIndex(id types.EntityID) int {
	i := sort.Search(len(m.dict), func(j int) bool { return m.dict[j] >= id })
	if i < len(m.dict) && m.dict[i] == id {
		return i
	}
	return -1
}

// segPartInfo is the plain directory-entry payload — everything the
// writer computes and the reader trusts after checkPartInfo. It is
// separate from segPart so the writer can copy it freely (segPart
// carries lock state). The directory includes the partition's [minStart,
// maxStart] time range so the store can prune, order, and overlap-check
// cold partitions without touching the meta region.
type segPartInfo struct {
	key      partKey
	nEvents  int
	nBlocks  int
	nDict    int
	metaCRC  uint32
	minStart int64
	maxStart int64
	metaOff  uint64
	metaLen  uint64
	dataOff  uint64
	dataLen  uint64
}

// segPart is one directory entry plus its lazily-decoded metadata.
type segPart struct {
	segPartInfo

	metaOnce sync.Once
	metaErr  error
	// meta is published atomically so Estimate can peek at already-decoded
	// metadata without forcing (or racing with) the decode.
	meta atomic.Pointer[segMeta]
}

// peekMeta returns the decoded metadata if some scan already produced it,
// without triggering a decode.
func (pi *segPart) peekMeta() *segMeta { return pi.meta.Load() }

// segmentFile is an opened segment: header and directory eagerly, the
// payload memory-mapped on first use and partition metadata decoded on
// first scan.
type segmentFile struct {
	path      string
	firstSeq  uint64
	lastSeq   uint64
	nEntities int
	entityOff uint64
	entityLen uint64
	entityCRC uint32
	parts     []segPart

	mapOnce sync.Once
	mapErr  error
	data    []byte
	mapped  bool // data came from mmap (vs. a read-whole-file fallback)
}

// ensureMapped maps (or, off unix, reads) the whole file read-only exactly
// once. The fd is closed immediately — the mapping outlives it.
func (sf *segmentFile) ensureMapped() error {
	sf.mapOnce.Do(func() {
		f, err := os.Open(sf.path)
		if err != nil {
			sf.mapErr = fmt.Errorf("storage: segment: %w", err)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			sf.mapErr = fmt.Errorf("storage: segment: %w", err)
			return
		}
		sf.data, sf.mapped, sf.mapErr = mapFile(f, fi.Size())
	})
	return sf.mapErr
}

// unmap releases the mapping; only tests call it (stores keep segments
// mapped for their lifetime — the kernel pages them in and out as needed).
func (sf *segmentFile) unmap() {
	if sf.mapped && sf.data != nil {
		unmapFile(sf.data)
	}
	sf.data = nil
	sf.mapped = false
}

// writeSegment compacts one batch of entities and events — everything a
// WAL range [firstSeq, lastSeq] carried — into an immutable segment file in
// dir, returning it opened (header + directory, payload unmapped). Events
// are partitioned by (agent, day) and sorted exactly as the in-memory store
// holds them. lookup resolves entity ids the batch itself does not carry
// (events referencing entities sealed in earlier segments) so the attribute
// zone maps can cover them; ids neither the batch nor lookup resolve
// saturate their block's filter instead of weakening it.
func writeSegment(dir string, firstSeq, lastSeq uint64, entities []types.Entity, events []types.Event, lookup func(types.EntityID) *types.Entity) (*segmentFile, error) {
	parts := make(map[partKey][]types.Event)
	for i := range events {
		ev := &events[i]
		key := partKey{agent: ev.AgentID, day: timeutil.DayIndex(ev.Start)}
		parts[key] = append(parts[key], *ev)
	}
	keys := make([]partKey, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].day != keys[j].day {
			return keys[i].day < keys[j].day
		}
		return keys[i].agent < keys[j].agent
	})

	byID := make(map[types.EntityID]*types.Entity, len(entities))
	for i := range entities {
		byID[entities[i].ID] = &entities[i]
	}
	resolve := func(id types.EntityID) *types.Entity {
		if e, ok := byID[id]; ok {
			return e
		}
		if lookup != nil {
			return lookup(id)
		}
		return nil
	}

	built := make([]partBuild, 0, len(keys))
	for _, k := range keys {
		evs := parts[k]
		sort.Slice(evs, func(i, j int) bool { return eventLess(&evs[i], &evs[j]) })
		bp, err := buildPartition(k, evs, resolve)
		if err != nil {
			return nil, err
		}
		built = append(built, bp)
	}

	// Assign offsets: header | directory | meta+data per partition | entities.
	off := uint64(segHeaderLen + len(built)*segDirEntry)
	for i := range built {
		bp := &built[i]
		bp.info.metaOff, bp.info.metaLen = off, uint64(len(bp.meta))
		off += uint64(len(bp.meta))
		bp.info.dataOff, bp.info.dataLen = off, uint64(len(bp.data))
		off += uint64(len(bp.data))
	}
	var entBlock []byte
	for i := range entities {
		entBlock = appendEntity(entBlock, &entities[i])
	}
	entityOff := off

	dirBytes := make([]byte, 0, len(built)*segDirEntry)
	for i := range built {
		e := &built[i].info
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(int64(e.key.agent)))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(int64(e.key.day)))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nEvents))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nBlocks))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nDict))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, e.metaCRC)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(e.minStart))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(e.maxStart))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.metaOff)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.metaLen)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.dataOff)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.dataLen)
	}

	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstSeq)
	hdr = binary.LittleEndian.AppendUint64(hdr, lastSeq)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(built)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(entities)))
	hdr = binary.LittleEndian.AppendUint64(hdr, entityOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(entBlock)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(entBlock, castagnoli))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(dirBytes, castagnoli))

	final := filepath.Join(dir, segFileName(firstSeq, lastSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(tmp)
		}
	}()
	chunks := [][]byte{hdr, dirBytes}
	for i := range built {
		chunks = append(chunks, built[i].meta, built[i].data)
	}
	chunks = append(chunks, entBlock)
	for _, chunk := range chunks {
		if _, err := f.Write(chunk); err != nil {
			return nil, fmt.Errorf("storage: segment: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	// Validate the file BEFORE the rename makes it authoritative: once a
	// parsed segment exists its WAL range can be deleted, so any failure
	// from here on must leave either a sweepable .tmp or a good segment —
	// never a renamed file the caller failed to track (a silently retried
	// compaction would then write an overlapping segment and recovery
	// would apply the range twice).
	sf, err := openSegment(tmp)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	ok = true
	sf.path = final
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return sf, nil
}

// partBuild is one encoded partition: its directory entry (offsets still
// unassigned), meta region and data region.
type partBuild struct {
	info segPartInfo
	meta []byte
	data []byte
}

// syncDir fsyncs a directory so a just-renamed file survives a power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", dir, err)
	}
	return nil
}

func segFileName(first, last uint64) string {
	return fmt.Sprintf("seg-%016x-%016x.seg", first, last)
}

// openSegment reads a segment's header and directory only, bounding and
// cross-checking every count and offset so later lazy loads can trust the
// directory arithmetic. A file with any other magic — the retired v1 row
// and v2 uncompressed formats included — is refused as corrupt: opening a
// store with a silently shorter history would be worse.
func openSegment(path string) (*segmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	size := uint64(fi.Size())
	hdr := make([]byte, segHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, corruptf(path, "short header: %v", err)
	}
	if string(hdr[:8]) != segMagic {
		return nil, corruptf(path, "bad magic %q: unsupported segment format, want %q", hdr[:8], segMagic)
	}
	sf := &segmentFile{
		path:      path,
		firstSeq:  binary.LittleEndian.Uint64(hdr[8:]),
		lastSeq:   binary.LittleEndian.Uint64(hdr[16:]),
		nEntities: int(binary.LittleEndian.Uint32(hdr[28:])),
		entityOff: binary.LittleEndian.Uint64(hdr[32:]),
		entityLen: binary.LittleEndian.Uint64(hdr[40:]),
		entityCRC: binary.LittleEndian.Uint32(hdr[48:]),
	}
	// The header itself carries no checksum, so every size/offset in it is
	// untrusted until bounded against the actual file: a flipped bit in a
	// length field must be a clean corruption error here, not a huge
	// allocation (OOM) at load time.
	if sf.entityOff > size || sf.entityLen > size-sf.entityOff {
		return nil, corruptf(path, "entity block [%d,+%d) exceeds file size %d", sf.entityOff, sf.entityLen, size)
	}
	if uint64(sf.nEntities) > sf.entityLen { // an entity encodes to >= 21 bytes
		return nil, corruptf(path, "implausible entity count %d for %d-byte block", sf.nEntities, sf.entityLen)
	}
	nParts := int(binary.LittleEndian.Uint32(hdr[24:]))
	dirCRC := binary.LittleEndian.Uint32(hdr[52:])
	if nParts < 0 || uint64(nParts) > size/segDirEntry {
		return nil, corruptf(path, "implausible partition count %d", nParts)
	}
	dirBytes := make([]byte, nParts*segDirEntry)
	if _, err := f.ReadAt(dirBytes, segHeaderLen); err != nil {
		return nil, corruptf(path, "short directory: %v", err)
	}
	if crc32.Checksum(dirBytes, castagnoli) != dirCRC {
		return nil, corruptf(path, "directory checksum mismatch")
	}
	sf.parts = make([]segPart, nParts)
	for i := 0; i < nParts; i++ {
		b := dirBytes[i*segDirEntry:]
		pi := &sf.parts[i]
		pi.key = partKey{
			agent: int(int64(binary.LittleEndian.Uint64(b[0:]))),
			day:   int(int64(binary.LittleEndian.Uint64(b[8:]))),
		}
		pi.nEvents = int(binary.LittleEndian.Uint32(b[16:]))
		pi.nBlocks = int(binary.LittleEndian.Uint32(b[20:]))
		pi.nDict = int(binary.LittleEndian.Uint32(b[24:]))
		pi.metaCRC = binary.LittleEndian.Uint32(b[28:])
		pi.minStart = int64(binary.LittleEndian.Uint64(b[32:]))
		pi.maxStart = int64(binary.LittleEndian.Uint64(b[40:]))
		pi.metaOff = binary.LittleEndian.Uint64(b[48:])
		pi.metaLen = binary.LittleEndian.Uint64(b[56:])
		pi.dataOff = binary.LittleEndian.Uint64(b[64:])
		pi.dataLen = binary.LittleEndian.Uint64(b[72:])
		if err := checkPartInfo(path, pi, size); err != nil {
			return nil, err
		}
	}
	return sf, nil
}

// checkPartInfo verifies one directory entry's internal arithmetic: the
// meta length is a function of the counts and all regions sit inside the
// file. Data regions are variable-length (compressed), so their length is
// bounded rather than exact; the per-zone offsets are validated against it
// when the meta region decodes.
func checkPartInfo(path string, pi *segPart, size uint64) error {
	at := func(format string, args ...any) error {
		return corruptf(path, "partition (%d,%d): %s", pi.key.agent, pi.key.day, fmt.Sprintf(format, args...))
	}
	if pi.nEvents <= 0 {
		return at("implausible event count %d", pi.nEvents)
	}
	if want := (pi.nEvents + segBlockRows - 1) / segBlockRows; pi.nBlocks != want {
		return at("block count %d, want %d for %d events", pi.nBlocks, want, pi.nEvents)
	}
	if pi.nDict <= 0 || pi.nDict > 2*pi.nEvents {
		return at("implausible dictionary size %d for %d events", pi.nDict, pi.nEvents)
	}
	if pi.minStart > pi.maxStart {
		return at("time range inverted")
	}
	wantMeta := uint64(pi.nDict)*8 + uint64(pi.nBlocks)*segZoneBytes + uint64(2*pi.nDict+1)*4 + uint64(2*pi.nEvents)*4
	if pi.metaLen != wantMeta {
		return at("meta length %d, want %d", pi.metaLen, wantMeta)
	}
	// Each block stores at least its flag byte, at most the flag plus an
	// encoding that never exceeds segMaxRowEnc per row.
	maxData := uint64(pi.nEvents)*segMaxRowEnc + uint64(pi.nBlocks)
	if pi.dataLen < uint64(pi.nBlocks) || pi.dataLen > maxData {
		return at("data length %d outside [%d,%d]", pi.dataLen, pi.nBlocks, maxData)
	}
	if pi.metaOff > size || pi.metaLen > size-pi.metaOff {
		return at("meta region [%d,+%d) exceeds file size %d", pi.metaOff, pi.metaLen, size)
	}
	if pi.dataOff > size || pi.dataLen > size-pi.dataOff {
		return at("data region [%d,+%d) exceeds file size %d", pi.dataOff, pi.dataLen, size)
	}
	return nil
}

// loadMeta decodes (once) a partition's dictionary, zone maps and posting
// lists from the mapped file, verifying the region checksum and every
// structural invariant the scan path will rely on.
func (sf *segmentFile) loadMeta(pi *segPart) (*segMeta, error) {
	pi.metaOnce.Do(func() {
		m, err := sf.decodeMeta(pi)
		if err != nil {
			pi.metaErr = err
			return
		}
		pi.meta.Store(m)
	})
	return pi.meta.Load(), pi.metaErr
}

func (sf *segmentFile) decodeMeta(pi *segPart) (*segMeta, error) {
	if err := sf.ensureMapped(); err != nil {
		return nil, err
	}
	at := func(format string, args ...any) error {
		return corruptf(sf.path, "partition (%d,%d): %s", pi.key.agent, pi.key.day, fmt.Sprintf(format, args...))
	}
	if pi.metaOff+pi.metaLen > uint64(len(sf.data)) {
		return nil, at("meta region exceeds mapped size %d", len(sf.data))
	}
	raw := sf.data[pi.metaOff : pi.metaOff+pi.metaLen]
	if crc32.Checksum(raw, castagnoli) != pi.metaCRC {
		return nil, at("meta checksum mismatch")
	}
	m := &segMeta{
		dict:   make([]types.EntityID, pi.nDict),
		zones:  make([]segZone, pi.nBlocks),
		bounds: make([]uint32, 2*pi.nDict+1),
		posts:  make([]uint32, 2*pi.nEvents),
	}
	off := 0
	for i := range m.dict {
		m.dict[i] = types.EntityID(binary.LittleEndian.Uint64(raw[off:]))
		if i > 0 && m.dict[i] <= m.dict[i-1] {
			return nil, at("dictionary not strictly ascending at slot %d", i)
		}
		off += 8
	}
	total := 0
	nextDataOff := uint64(0)
	for i := range m.zones {
		z := &m.zones[i]
		z.count = int(binary.LittleEndian.Uint32(raw[off:]))
		z.crc = binary.LittleEndian.Uint32(raw[off+4:])
		z.minStart = int64(binary.LittleEndian.Uint64(raw[off+8:]))
		z.maxStart = int64(binary.LittleEndian.Uint64(raw[off+16:]))
		z.ops = types.OpSet(binary.LittleEndian.Uint16(raw[off+24:]))
		z.minSubj = binary.LittleEndian.Uint32(raw[off+26:])
		z.maxSubj = binary.LittleEndian.Uint32(raw[off+30:])
		z.minObj = binary.LittleEndian.Uint32(raw[off+34:])
		z.maxObj = binary.LittleEndian.Uint32(raw[off+38:])
		z.subjTri = binary.LittleEndian.Uint64(raw[off+42:])
		z.objTri = binary.LittleEndian.Uint64(raw[off+50:])
		z.dataOff = binary.LittleEndian.Uint64(raw[off+58:])
		z.dataLen = binary.LittleEndian.Uint32(raw[off+66:])
		z.rawLen = binary.LittleEndian.Uint32(raw[off+70:])
		off += segZoneBytes
		if z.count <= 0 || z.count > segBlockRows {
			return nil, at("block %d: implausible row count %d", i, z.count)
		}
		if z.minStart > z.maxStart {
			return nil, at("block %d: zone time range inverted", i)
		}
		if i > 0 && z.minStart < m.zones[i-1].maxStart {
			return nil, at("block %d: zone time range overlaps previous block", i)
		}
		if z.minSubj > z.maxSubj || int(z.maxSubj) >= pi.nDict ||
			z.minObj > z.maxObj || int(z.maxObj) >= pi.nDict {
			return nil, at("block %d: zone dictionary range out of bounds", i)
		}
		// Stored blocks must tile the data region exactly; the raw
		// (decompressed) length is bounded per row so a corrupt zone can
		// never request an unbounded allocation.
		if z.dataOff != nextDataOff {
			return nil, at("block %d: data offset %d, want %d", i, z.dataOff, nextDataOff)
		}
		if z.dataLen < 1 || uint64(z.dataLen) > pi.dataLen-z.dataOff {
			return nil, at("block %d: stored length %d exceeds data region", i, z.dataLen)
		}
		if z.rawLen < 1 || int(z.rawLen) > z.count*segMaxRowEnc {
			return nil, at("block %d: implausible raw length %d for %d rows", i, z.rawLen, z.count)
		}
		if z.dataLen > z.rawLen+1 {
			return nil, at("block %d: stored length %d exceeds raw length %d", i, z.dataLen, z.rawLen)
		}
		nextDataOff += uint64(z.dataLen)
		total += z.count
	}
	if total != pi.nEvents {
		return nil, at("zone row counts sum to %d, want %d", total, pi.nEvents)
	}
	if nextDataOff != pi.dataLen {
		return nil, at("blocks cover %d data bytes, want %d", nextDataOff, pi.dataLen)
	}
	if m.zones[0].minStart != pi.minStart || m.zones[len(m.zones)-1].maxStart != pi.maxStart {
		return nil, at("zone time ranges disagree with directory")
	}
	for i := range m.bounds {
		m.bounds[i] = binary.LittleEndian.Uint32(raw[off:])
		off += 4
		if i > 0 && m.bounds[i] < m.bounds[i-1] {
			return nil, at("posting bounds not monotone at %d", i)
		}
	}
	if m.bounds[0] != 0 || int(m.bounds[len(m.bounds)-1]) != 2*pi.nEvents {
		return nil, at("posting bounds do not cover the position array")
	}
	for i := range m.posts {
		m.posts[i] = binary.LittleEndian.Uint32(raw[off:])
		off += 4
		if int(m.posts[i]) >= pi.nEvents {
			return nil, at("posting position %d out of range", m.posts[i])
		}
	}
	// Each individual posting list must be ascending — the scan path merges
	// them positionally.
	for i := 1; i < len(m.bounds); i++ {
		list := m.posts[m.bounds[i-1]:m.bounds[i]]
		for j := 1; j < len(list); j++ {
			if list[j] <= list[j-1] {
				return nil, at("posting list %d not ascending", i-1)
			}
		}
	}
	return m, nil
}

// blockCols is a decoded column block, reused across blocks by one scan.
// Starts are absolute (delta already applied); subject/object are
// dictionary indexes; agents is the partition's constant agent id so the
// block satisfies pred.ColumnSource for every numeric event attribute.
type blockCols struct {
	n       int
	starts  []int64
	ends    []int64
	ids     []int64
	seqs    []int64
	amounts []int64
	fails   []int64
	agents  []int64
	subj    []uint32
	obj     []uint32
	ops     []types.Op

	// Decode scratch: decompression target and bit-unpack buffer, reused
	// across blocks like the columns themselves.
	enc         []byte
	packScratch []uint32
}

func (c *blockCols) reset(n int, agent int) {
	if cap(c.starts) < n {
		c.starts = make([]int64, n)
		c.ends = make([]int64, n)
		c.ids = make([]int64, n)
		c.seqs = make([]int64, n)
		c.amounts = make([]int64, n)
		c.fails = make([]int64, n)
		c.agents = make([]int64, n)
		c.subj = make([]uint32, n)
		c.obj = make([]uint32, n)
		c.ops = make([]types.Op, n)
	}
	c.n = n
	c.starts = c.starts[:n]
	c.ends = c.ends[:n]
	c.ids = c.ids[:n]
	c.seqs = c.seqs[:n]
	c.amounts = c.amounts[:n]
	c.fails = c.fails[:n]
	c.agents = c.agents[:n]
	c.subj = c.subj[:n]
	c.obj = c.obj[:n]
	c.ops = c.ops[:n]
	for i := 0; i < n; i++ {
		c.agents[i] = int64(agent)
	}
}

// NumRows implements pred.ColumnSource.
func (c *blockCols) NumRows() int { return c.n }

// Int64Column implements pred.ColumnSource.
func (c *blockCols) Int64Column(attr string) ([]int64, bool) {
	switch attr {
	case types.EvtAttrAmount:
		return c.amounts, true
	case types.EvtAttrFailCode:
		return c.fails, true
	case types.EvtAttrSeq:
		return c.seqs, true
	case types.EvtAttrStart:
		return c.starts, true
	case types.EvtAttrEnd:
		return c.ends, true
	case types.AttrAgentID:
		return c.agents, true
	case types.AttrID:
		return c.ids, true
	}
	return nil, false
}

// OpColumn implements pred.ColumnSource.
func (c *blockCols) OpColumn() ([]types.Op, bool) { return c.ops, true }

// event materializes row i into ev. The caller resolves subject/object
// through the partition dictionary.
func (c *blockCols) event(i int, m *segMeta, ev *types.Event) {
	ev.ID = types.EventID(c.ids[i])
	ev.AgentID = int(c.agents[i])
	ev.Subject = m.dict[c.subj[i]]
	ev.Object = m.dict[c.obj[i]]
	ev.Op = c.ops[i]
	ev.Start = c.starts[i]
	ev.End = c.ends[i]
	ev.Seq = uint64(c.seqs[i])
	ev.Amount = c.amounts[i]
	ev.FailCode = int(c.fails[i])
}

// readEntities reads, verifies and decodes the segment's entity block
// through a file handle (called at open, before any mapping exists).
func (sf *segmentFile) readEntities() ([]types.Entity, error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	defer f.Close()
	return readEntityBlock(sf.path, f, sf.entityOff, sf.entityLen, sf.entityCRC, sf.nEntities)
}

// readEntityBlock reads, verifies and decodes an entity block.
func readEntityBlock(path string, f *os.File, off, length uint64, wantCRC uint32, n int) ([]types.Entity, error) {
	block := make([]byte, length)
	if _, err := f.ReadAt(block, int64(off)); err != nil {
		return nil, corruptf(path, "read entities: %v", err)
	}
	if crc32.Checksum(block, castagnoli) != wantCRC {
		return nil, corruptf(path, "entity checksum mismatch")
	}
	d := &decoder{b: block}
	entities := make([]types.Entity, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		entities = append(entities, d.entity())
	}
	if d.err != nil {
		return nil, corruptf(path, "entities: %v", d.err)
	}
	if d.off != len(block) {
		return nil, corruptf(path, "entities: trailing bytes")
	}
	return entities, nil
}

// install maps the file read-only and registers each partition as a cold
// run: no event is decoded, so recovery touches headers and the entity
// block only, and later scans decode just the blocks their predicates can
// match. Cold runs covering the same (agent, day) must arrive oldest-first
// for the pointer hand-off fast path, so callers install segments
// sequentially in firstSeq order — the work per segment is trivial.
func (sf *segmentFile) install(s *Store) error {
	if err := sf.ensureMapped(); err != nil {
		return err
	}
	for i := range sf.parts {
		if err := s.installColdRun(sf, &sf.parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// events returns the total event count across the segment's partitions.
func (sf *segmentFile) events() int {
	n := 0
	for i := range sf.parts {
		n += sf.parts[i].nEvents
	}
	return n
}
