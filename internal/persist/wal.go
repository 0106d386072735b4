// Package persist is the durability layer for the rulebase: a write-ahead
// log of mutations, periodic compacted snapshots of the full rule state, and
// crash-safe restore. A WAL record is a core.Change framed as it arrives from
// core.Rulebase.SubscribeChanges (the feed the serving engine rebuilds from);
// restore hands it back to core.Rulebase.ApplyChange, which makes the
// transition through the same code as the live mutation did. The §4
// maintenance agenda — rule provenance, analyst actions, long-lived rule
// lifecycles — assumes the rulebase and its audit history survive restarts;
// this package is what makes that true.
//
// Recovery semantics are strict valid-prefix: a restore replays the snapshot
// plus every fully-durable WAL record and stops at the first torn, short, or
// corrupt frame. The restored rulebase is therefore always a state the live
// rulebase actually passed through — never torn, never beyond the last
// durable record (property-tested at every byte boundary in crash_test.go).
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
)

// Frame layout: [4-byte little-endian payload length][4-byte IEEE CRC32 of
// the payload][JSON payload]. The length bound rejects implausible frames
// early so a corrupt length byte cannot make the decoder swallow the rest of
// the file as one giant record. A changeset can exceed it (tens of thousands
// of rules, or long notes); Store then makes it durable by a snapshot.
const (
	frameHeaderSize = 8
	maxRecordSize   = 1 << 24
)

// EncodeRecord renders one mutation as a framed WAL entry; the payload is
// the Change's JSON, from its own MarshalJSON (json.Marshal would compact
// the bytes a second time).
func EncodeRecord(ch core.Change) ([]byte, error) {
	payload, err := ch.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("persist: encoding WAL record %d: %w", ch.Version, err)
	}
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("persist: WAL record %d is %d bytes, over the %d limit", ch.Version, len(payload), maxRecordSize)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// DecodeRecords parses data as a sequence of framed records and returns the
// records of the longest valid prefix, the byte length of that prefix
// (`durable`), and whether trailing bytes were discarded as torn. It never
// fails: a short header, an implausible length, a frame extending past the
// end of data, a CRC mismatch, or an undecodable payload all simply end the
// valid prefix — exactly the state a crash mid-append leaves behind.
func DecodeRecords(data []byte) (recs []core.Change, durable int, torn bool) {
	off := 0
	for len(data)-off >= frameHeaderSize {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if length == 0 || length > maxRecordSize || off+frameHeaderSize+length > len(data) {
			break
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		var ch core.Change
		if err := json.Unmarshal(payload, &ch); err != nil {
			break
		}
		recs = append(recs, ch)
		off += frameHeaderSize + length
	}
	return recs, off, off < len(data)
}
