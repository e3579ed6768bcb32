#ifndef DSMS_RECOVERY_CRC32_H_
#define DSMS_RECOVERY_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace dsms {

namespace crc32_internal {

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
struct Tables {
  uint32_t t[8][256];
};

inline const Tables& GetTables() {
  static const Tables tables = [] {
    Tables s{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      s.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = s.t[k - 1][i];
        s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xFFu];
      }
    }
    return s;
  }();
  return tables;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace crc32_internal

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// guarding every WAL record, checkpoint body and block file. Chosen over
/// anything fancier because torn writes and bit rot are the threat model,
/// not an adversary: a frame that fails its CRC marks the torn tail of the
/// log. Computed slicing-by-8 (eight bytes per step, byte-order independent
/// loads); the output is bit-identical to the bytewise definition.
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  const auto& t = crc32_internal::GetTables().t;
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc32_internal::LoadLe32(p) ^ crc;
    const uint32_t hi = crc32_internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dsms

#endif  // DSMS_RECOVERY_CRC32_H_
