// Package wal is the per-partition durability substrate: an append-only,
// CRC-framed operation log plus periodic snapshots, with crash-tolerant
// replay. It mirrors internal/wire's framing idiom — little-endian,
// length-prefixed, versioned — but adds a checksum per record because the
// medium is a disk that can tear, not a socket that resets.
//
// Layout of a partition's data directory:
//
//	wal-<seq>.log   append-only record segments (monotonically numbered)
//	snapshot        latest checkpoint (bitmap words + sessions + HWMs)
//	snapshot.tmp    in-flight checkpoint (ignored by replay; renamed over
//	                snapshot on completion, so the swap is atomic)
//
// The store acknowledges a record once its segment write and, under
// SyncAlways, a covering group-commit fsync have both succeeded; it makes no
// other filesystem call on the append path. The first failed write or fsync
// latches the log (ErrFailed): no later append is acknowledged, and a reopen
// replays what is durable.
//
// The package depends only on the standard library; lease wires it in
// through a narrow Journal interface so the dependency arrow stays
// wal ← lease, never the reverse.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op is the journaled operation kind.
type Op uint8

const (
	// OpAcquire records a granted lease: name bound to token until deadline.
	// Replay applies it unconditionally (a grant supersedes whatever the
	// name held before).
	OpAcquire Op = 1
	// OpRenew extends an existing lease's deadline. Replay applies it only
	// when the token matches the current holder.
	OpRenew Op = 2
	// OpRelease frees a lease. Token-checked on replay.
	OpRelease Op = 3
	// OpExpire frees a lease whose deadline lapsed. Token-checked on replay.
	OpExpire Op = 4
)

func (o Op) String() string {
	switch o {
	case OpAcquire:
		return "acquire"
	case OpRenew:
		return "renew"
	case OpRelease:
		return "release"
	case OpExpire:
		return "expire"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one journaled lease transition. LSN is assigned by the log at
// append time and is strictly increasing within a partition; replay uses it
// to skip records already folded into a snapshot.
type Record struct {
	LSN      uint64
	Op       Op
	Name     uint32
	Token    uint64
	Deadline int64 // UnixNano; 0 = infinite (never expires)
}

const (
	// recordPayloadLen is the fixed wire size of an encoded Record:
	// u64 LSN + u8 op + u32 name + u64 token + i64 deadline.
	recordPayloadLen = 8 + 1 + 4 + 8 + 8
	// frameHeaderLen prefixes each payload: u32 length + u32 CRC.
	frameHeaderLen = 4 + 4
	// frameLen is the full on-disk size of one record.
	frameLen = frameHeaderLen + recordPayloadLen
)

// castagnoli is the CRC32-C table; the polynomial with hardware support on
// both amd64 and arm64, and the conventional choice for storage framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a record that fails its frame checks — short read, bad
// length, or CRC mismatch. Replay treats the first torn record as the end
// of the log: everything before it is durable, it and everything after are
// the debris of a crash mid-write.
var ErrTorn = errors.New("wal: torn record")

// appendRecord encodes r into buf's tail and returns the extended slice.
func appendRecord(buf []byte, r Record) []byte {
	var payload [recordPayloadLen]byte
	binary.LittleEndian.PutUint64(payload[0:8], r.LSN)
	payload[8] = byte(r.Op)
	binary.LittleEndian.PutUint32(payload[9:13], r.Name)
	binary.LittleEndian.PutUint64(payload[13:21], r.Token)
	binary.LittleEndian.PutUint64(payload[21:29], uint64(r.Deadline))

	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recordPayloadLen)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload[:], castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:]...)
}

// decodeRecord parses one frame from b. It returns the record and the
// number of bytes consumed, or ErrTorn when the frame is short, oversized
// or fails its CRC.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n != recordPayloadLen {
		// Future versions may grow the payload; today anything but the
		// fixed size is corruption (or a torn length word).
		return Record{}, 0, ErrTorn
	}
	if len(b) < frameHeaderLen+int(n) {
		return Record{}, 0, ErrTorn
	}
	payload := b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, ErrTorn
	}
	r := Record{
		LSN:      binary.LittleEndian.Uint64(payload[0:8]),
		Op:       Op(payload[8]),
		Name:     binary.LittleEndian.Uint32(payload[9:13]),
		Token:    binary.LittleEndian.Uint64(payload[13:21]),
		Deadline: int64(binary.LittleEndian.Uint64(payload[21:29])),
	}
	if r.Op < OpAcquire || r.Op > OpExpire {
		return Record{}, 0, ErrTorn
	}
	return r, frameHeaderLen + int(n), nil
}
