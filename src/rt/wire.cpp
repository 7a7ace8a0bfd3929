#include "rt/wire.h"

#include <cstring>
#include <type_traits>

namespace gcs {

namespace {

// Little-endian scalar writers/readers. The cursors advance as a side
// effect; bounds are the caller's responsibility (frames are tiny and the
// sizes are static per tag).

template <class T>
void put(std::uint8_t*& p, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(T));
  p += sizeof(T);
}

template <class T>
T get(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

// 256-entry table for the reflected Castagnoli polynomial, built once at
// compile time.
struct Crc32cTable {
  std::uint32_t t[256];
  constexpr Crc32cTable() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
  }
};

constexpr Crc32cTable kCrcTable{};

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = kCrcTable.t[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::size_t wire_encode(const WireMsg& m, std::uint8_t* buf) {
  std::uint8_t* p = buf + 2;  // length prefix is back-patched below
  put<std::uint8_t>(p, kWireVersion);
  const std::uint8_t tag = static_cast<std::uint8_t>(m.payload.index());
  put<std::uint8_t>(p, tag);
  put<std::uint32_t>(p, static_cast<std::uint32_t>(m.from));
  put<std::uint32_t>(p, static_cast<std::uint32_t>(m.to));
  put<double>(p, m.sent_at);
  switch (tag) {
    case 0: {
      const auto& b = std::get<Beacon>(m.payload);
      put<double>(p, b.logical);
      put<double>(p, b.max_estimate);
      put<double>(p, b.min_estimate);
      break;
    }
    case 1: {
      const auto& ins = std::get<InsertEdgeMsg>(m.payload);
      put<double>(p, ins.l_ins);
      put<double>(p, ins.gtilde);
      break;
    }
    case 2: {
      const auto& req = std::get<TimeRequest>(m.payload);
      put<std::uint32_t>(p, req.id);
      put<double>(p, req.sender_hw);
      break;
    }
    case 3: {
      const auto& resp = std::get<TimeResponse>(m.payload);
      put<std::uint32_t>(p, resp.id);
      put<double>(p, resp.echo_hw);
      put<double>(p, resp.remote_logical);
      break;
    }
    case 4: {
      const auto& ping = std::get<LivenessPing>(m.payload);
      put<std::uint32_t>(p, ping.seq);
      put<std::uint32_t>(p, ping.kind);
      break;
    }
    default:
      require(false, "wire_encode: unknown payload alternative");
  }
  const std::size_t total = static_cast<std::size_t>(p - buf) + kWireCrcBytes;
  require(total <= kWireMax, "wire_encode: frame exceeds kWireMax");
  std::uint8_t* len_p = buf;
  put<std::uint16_t>(len_p, static_cast<std::uint16_t>(total - 2));
  // The CRC covers everything before it, length prefix included, so a
  // corrupted prefix fails the check even when the framing still lines up.
  put<std::uint32_t>(p, crc32c(buf, total - kWireCrcBytes));
  return total;
}

bool wire_decode(const std::uint8_t* buf, std::size_t len, WireMsg& out) {
  constexpr std::size_t kHeader = 2 + 1 + 1 + 4 + 4 + 8;
  if (len < kHeader) return false;
  const std::uint8_t* p = buf;
  const std::uint16_t body = get<std::uint16_t>(p);
  if (static_cast<std::size_t>(body) + 2 != len) return false;
  // Unknown version (v1 included): drop, never guess at the layout.
  if (get<std::uint8_t>(p) != kWireVersion) return false;
  // Integrity first: no field is trusted until the trailer checks out.
  if (len < kHeader + kWireCrcBytes) return false;
  const std::size_t payload_end = len - kWireCrcBytes;
  const std::uint8_t* crc_p = buf + payload_end;
  if (get<std::uint32_t>(crc_p) != crc32c(buf, payload_end)) return false;
  const std::uint8_t tag = get<std::uint8_t>(p);
  out.from = static_cast<NodeId>(get<std::uint32_t>(p));
  out.to = static_cast<NodeId>(get<std::uint32_t>(p));
  out.sent_at = get<double>(p);
  const std::size_t rest = payload_end - kHeader;
  switch (tag) {
    case 0: {
      if (rest != 24) return false;
      Beacon b;
      b.logical = get<double>(p);
      b.max_estimate = get<double>(p);
      b.min_estimate = get<double>(p);
      out.payload = b;
      return true;
    }
    case 1: {
      if (rest != 16) return false;
      InsertEdgeMsg ins;
      ins.l_ins = get<double>(p);
      ins.gtilde = get<double>(p);
      out.payload = ins;
      return true;
    }
    case 2: {
      if (rest != 12) return false;
      TimeRequest req;
      req.id = get<std::uint32_t>(p);
      req.sender_hw = get<double>(p);
      out.payload = req;
      return true;
    }
    case 3: {
      if (rest != 20) return false;
      TimeResponse resp;
      resp.id = get<std::uint32_t>(p);
      resp.echo_hw = get<double>(p);
      resp.remote_logical = get<double>(p);
      out.payload = resp;
      return true;
    }
    case 4: {
      if (rest != 8) return false;
      LivenessPing ping;
      ping.seq = get<std::uint32_t>(p);
      ping.kind = get<std::uint32_t>(p);
      out.payload = ping;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace gcs
