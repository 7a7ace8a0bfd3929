// Wire format for runtime transports.
//
// A length-prefixed little-endian frame carrying one Message payload:
//
//   u16 length   (bytes after this field: the whole frame minus 2)
//   u8  version  (kWireVersion; receivers drop unknown versions)
//   u8  tag      (payload alternative: 0 Beacon, 1 InsertEdge, 2 TimeRequest,
//                 3 TimeResponse, 4 LivenessPing — the Payload variant order,
//                 pinned here)
//   u32 from, u32 to
//   f64 sent_at  (sender model time)
//   payload fields (fixed per tag, doubles and u32s, little-endian)
//   u32 crc32c   (Castagnoli CRC of every preceding byte, length
//                 prefix included)
//
// The prefix is redundant for UDP (datagram boundaries frame for free) but
// makes the same frames usable over stream transports, and lets a receiver
// reject truncated datagrams in one check. Field-wise encoding rather than
// a struct memcpy: the frame layout is a contract between *processes*, and
// must not silently follow compiler padding.
//
// Version history. v1 had no integrity trailer: a flipped payload bit
// decoded into a plausible message. v2 appends the CRC32C trailer, which
// the decoder verifies before looking at any field. v2 is the only version
// encoded or decoded; v1 frames are dropped like any unknown version.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/message.h"

namespace gcs {

/// A payload in flight between runtime nodes, plus its addressing: exactly
/// the fields a frame carries. Transport-private state (the pipe's fault
/// hold, say) lives in the transport, never here.
struct WireMsg {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Time sent_at = 0.0;
  Payload payload{};
};

inline constexpr std::uint8_t kWireVersion = 2;
/// Bytes of the CRC32C trailer.
inline constexpr std::size_t kWireCrcBytes = 4;
/// Largest encoded frame (header + widest payload alternative + trailer).
inline constexpr std::size_t kWireMax = 64;

/// CRC32C (Castagnoli, reflected 0x82F63B78) — the checksum iSCSI and
/// ext4 use. Software table implementation; frames are tiny.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);

/// Encode into `buf` (capacity >= kWireMax). Returns the frame size in
/// bytes, length prefix and CRC trailer included. Always emits kWireVersion.
std::size_t wire_encode(const WireMsg& m, std::uint8_t* buf);

/// Decode one frame. False on truncation, bad version, bad tag, a length
/// prefix disagreeing with `len`, or a CRC mismatch — the CRC is
/// checked before any field is interpreted.
bool wire_decode(const std::uint8_t* buf, std::size_t len, WireMsg& out);

}  // namespace gcs
