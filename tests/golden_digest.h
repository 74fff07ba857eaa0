#ifndef SEMDRIFT_TESTS_GOLDEN_DIGEST_H_
#define SEMDRIFT_TESTS_GOLDEN_DIGEST_H_

#include <bit>
#include <cstdint>

#include "util/crc32.h"

namespace semdrift {

/// CRC32 over a canonical byte stream: integers little-endian, doubles as
/// their IEEE-754 bit patterns. Tests pin these digests as constants, so an
/// output that drifts by one ulp fails just as an exact comparison would.
class GoldenDigest {
 public:
  void U32(uint32_t v) { Bytes(v, 4); }
  void U64(uint64_t v) { Bytes(v, 8); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  uint32_t value() const { return crc_.value(); }

 private:
  void Bytes(uint64_t v, int n) {
    unsigned char b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    crc_.Update(b, n);
  }

  Crc32 crc_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_TESTS_GOLDEN_DIGEST_H_
