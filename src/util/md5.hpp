#pragma once
// MD5 implemented from scratch (RFC 1321). The paper generates MD5
// checksums in parallel, one per mesh sub-array, to track the integrity of
// multi-terabyte simulation collections (§III.E, §III.I). This is that
// primitive; the parallel driver lives in src/io/checksum.*.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace awp {

class Md5 {
 public:
  Md5();

  void update(const void* data, std::size_t len);
  // Finalize and return the 16-byte digest. The object may not be updated
  // afterwards (reset() to reuse).
  std::array<std::uint8_t, 16> digest();
  void reset();

  // One-shot helpers.
  static std::array<std::uint8_t, 16> hash(const void* data, std::size_t len);
  static std::string hexDigest(const void* data, std::size_t len);
  static std::string toHex(const std::array<std::uint8_t, 16>& d);

  // The RFC 1321 compression function: fold one 64-byte block into
  // `state` (no padding, no length).
  static void compress(std::uint32_t (&state)[4], const std::uint8_t* block);

 private:
  std::uint32_t state_[4];
  std::uint64_t totalBits_ = 0;
  std::uint8_t buffer_[64];
  std::size_t bufferLen_ = 0;
  bool finalized_ = false;
};

// Striped MD5 for bulk payloads: the §III.E "MD5 of per-block MD5s"
// construction applied across SIMD lanes instead of ranks. kMd5Lanes
// independent MD5 lanes run over word-interleaved input: lane l takes the
// little-endian 32-bit words l, l+8, l+16, ... of each kMd5StripeBytes
// block, so each lane compresses one 64-byte block per stripe and one
// vector register holds the same step of every lane. The digest is the
// RFC MD5 of the lane states (lane order, each as four little-endian
// words, no per-lane padding), followed by the tail (the last
// len % kMd5StripeBytes bytes) and len as a 64-bit little-endian byte
// count. It is not the MD5 of the payload: use it only where the writer
// and the reader both use it (checkpoint payloads); content keys and
// published digests stay RFC MD5.
inline constexpr std::size_t kMd5Lanes = 8;
inline constexpr std::size_t kMd5StripeBytes = 64 * kMd5Lanes;
std::array<std::uint8_t, 16> stripedMd5(const void* data, std::size_t len);

}  // namespace awp
