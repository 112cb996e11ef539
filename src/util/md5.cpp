#include "util/md5.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace awp {
namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

std::uint32_t loadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void storeLe(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

// Message word j of a block: one little-endian 32-bit word for the
// scalar core; for the striped digest, one lane vector read straight from
// the stripe (word 8j + l of the stripe is word j of lane l, so the eight
// lanes' words are 32 contiguous bytes). The vector is written through a
// reference, never returned by value: no vector crosses a call boundary.
inline void loadWord(std::uint32_t& out, const std::uint8_t* block, int j) {
  out = loadLe32(block + 4 * j);
}
template <typename W>
inline void loadWord(W& out, const std::uint8_t* block, int j) {
  std::memcpy(&out, block + sizeof(W) * j, sizeof(W));
}

// One RFC 1321 step, a = b + ((a + f(b, c, d) + x[j] + k) <<< S), with
// the round function f chosen by Round (F, G, H, I). W is std::uint32_t
// for the scalar core or a GCC lane vector for the striped digest.
template <int Round, int S, typename W>
[[gnu::always_inline]] inline void step(W& a, const W& b, const W& c,
                                        const W& d, const std::uint8_t* block,
                                        int j, std::uint32_t k) {
  W x;
  loadWord(x, block, j);
  if constexpr (Round == 0)
    a += (d ^ (b & (c ^ d))) + x + k;
  else if constexpr (Round == 1)
    a += (c ^ (d & (b ^ c))) + x + k;
  else if constexpr (Round == 2)
    a += (b ^ c ^ d) + x + k;
  else
    a += (c ^ (b | ~d)) + x + k;
  a = ((a << S) | (a >> (32 - S))) + b;
}

// The 64 steps of one block, unrolled, with the RFC's message-word
// schedule, shifts and sine constants K[i] = floor(2^32 |sin(i + 1)|).
template <typename W>
[[gnu::always_inline]] inline void rounds(W (&s)[4],
                                          const std::uint8_t* block) {
  W a = s[0], b = s[1], c = s[2], d = s[3];

  step<0, 7>(a, b, c, d, block, 0, 0xd76aa478u);
  step<0, 12>(d, a, b, c, block, 1, 0xe8c7b756u);
  step<0, 17>(c, d, a, b, block, 2, 0x242070dbu);
  step<0, 22>(b, c, d, a, block, 3, 0xc1bdceeeu);
  step<0, 7>(a, b, c, d, block, 4, 0xf57c0fafu);
  step<0, 12>(d, a, b, c, block, 5, 0x4787c62au);
  step<0, 17>(c, d, a, b, block, 6, 0xa8304613u);
  step<0, 22>(b, c, d, a, block, 7, 0xfd469501u);
  step<0, 7>(a, b, c, d, block, 8, 0x698098d8u);
  step<0, 12>(d, a, b, c, block, 9, 0x8b44f7afu);
  step<0, 17>(c, d, a, b, block, 10, 0xffff5bb1u);
  step<0, 22>(b, c, d, a, block, 11, 0x895cd7beu);
  step<0, 7>(a, b, c, d, block, 12, 0x6b901122u);
  step<0, 12>(d, a, b, c, block, 13, 0xfd987193u);
  step<0, 17>(c, d, a, b, block, 14, 0xa679438eu);
  step<0, 22>(b, c, d, a, block, 15, 0x49b40821u);

  step<1, 5>(a, b, c, d, block, 1, 0xf61e2562u);
  step<1, 9>(d, a, b, c, block, 6, 0xc040b340u);
  step<1, 14>(c, d, a, b, block, 11, 0x265e5a51u);
  step<1, 20>(b, c, d, a, block, 0, 0xe9b6c7aau);
  step<1, 5>(a, b, c, d, block, 5, 0xd62f105du);
  step<1, 9>(d, a, b, c, block, 10, 0x02441453u);
  step<1, 14>(c, d, a, b, block, 15, 0xd8a1e681u);
  step<1, 20>(b, c, d, a, block, 4, 0xe7d3fbc8u);
  step<1, 5>(a, b, c, d, block, 9, 0x21e1cde6u);
  step<1, 9>(d, a, b, c, block, 14, 0xc33707d6u);
  step<1, 14>(c, d, a, b, block, 3, 0xf4d50d87u);
  step<1, 20>(b, c, d, a, block, 8, 0x455a14edu);
  step<1, 5>(a, b, c, d, block, 13, 0xa9e3e905u);
  step<1, 9>(d, a, b, c, block, 2, 0xfcefa3f8u);
  step<1, 14>(c, d, a, b, block, 7, 0x676f02d9u);
  step<1, 20>(b, c, d, a, block, 12, 0x8d2a4c8au);

  step<2, 4>(a, b, c, d, block, 5, 0xfffa3942u);
  step<2, 11>(d, a, b, c, block, 8, 0x8771f681u);
  step<2, 16>(c, d, a, b, block, 11, 0x6d9d6122u);
  step<2, 23>(b, c, d, a, block, 14, 0xfde5380cu);
  step<2, 4>(a, b, c, d, block, 1, 0xa4beea44u);
  step<2, 11>(d, a, b, c, block, 4, 0x4bdecfa9u);
  step<2, 16>(c, d, a, b, block, 7, 0xf6bb4b60u);
  step<2, 23>(b, c, d, a, block, 10, 0xbebfbc70u);
  step<2, 4>(a, b, c, d, block, 13, 0x289b7ec6u);
  step<2, 11>(d, a, b, c, block, 0, 0xeaa127fau);
  step<2, 16>(c, d, a, b, block, 3, 0xd4ef3085u);
  step<2, 23>(b, c, d, a, block, 6, 0x04881d05u);
  step<2, 4>(a, b, c, d, block, 9, 0xd9d4d039u);
  step<2, 11>(d, a, b, c, block, 12, 0xe6db99e5u);
  step<2, 16>(c, d, a, b, block, 15, 0x1fa27cf8u);
  step<2, 23>(b, c, d, a, block, 2, 0xc4ac5665u);

  step<3, 6>(a, b, c, d, block, 0, 0xf4292244u);
  step<3, 10>(d, a, b, c, block, 7, 0x432aff97u);
  step<3, 15>(c, d, a, b, block, 14, 0xab9423a7u);
  step<3, 21>(b, c, d, a, block, 5, 0xfc93a039u);
  step<3, 6>(a, b, c, d, block, 12, 0x655b59c3u);
  step<3, 10>(d, a, b, c, block, 3, 0x8f0ccc92u);
  step<3, 15>(c, d, a, b, block, 10, 0xffeff47du);
  step<3, 21>(b, c, d, a, block, 1, 0x85845dd1u);
  step<3, 6>(a, b, c, d, block, 8, 0x6fa87e4fu);
  step<3, 10>(d, a, b, c, block, 15, 0xfe2ce6e0u);
  step<3, 15>(c, d, a, b, block, 6, 0xa3014314u);
  step<3, 21>(b, c, d, a, block, 13, 0x4e0811a1u);
  step<3, 6>(a, b, c, d, block, 4, 0xf7537e82u);
  step<3, 10>(d, a, b, c, block, 11, 0xbd3af235u);
  step<3, 15>(c, d, a, b, block, 2, 0x2ad7d2bbu);
  step<3, 21>(b, c, d, a, block, 9, 0xeb86d391u);

  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
}

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  totalBits_ = 0;
  bufferLen_ = 0;
  finalized_ = false;
}

void Md5::compress(std::uint32_t (&state)[4], const std::uint8_t* block) {
  rounds(state, block);
}

void Md5::update(const void* data, std::size_t len) {
  AWP_CHECK_MSG(!finalized_, "Md5::update after digest()");
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  totalBits_ += static_cast<std::uint64_t>(len) * 8;

  if (bufferLen_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - bufferLen_, len);
    std::memcpy(buffer_ + bufferLen_, p, take);
    bufferLen_ += take;
    p += take;
    len -= take;
    if (bufferLen_ < 64) return;
    compress(state_, buffer_);
    bufferLen_ = 0;
  }
  // Full blocks straight from the caller's buffer.
  for (; len >= 64; p += 64, len -= 64) compress(state_, p);
  if (len > 0) std::memcpy(buffer_, p, len);
  bufferLen_ = len;
}

std::array<std::uint8_t, 16> Md5::digest() {
  AWP_CHECK_MSG(!finalized_, "Md5::digest called twice");
  // Padding: 0x80 then zeros until length ≡ 56 (mod 64), then the message
  // length in bits as 8 little-endian bytes.
  std::uint8_t pad[72] = {0x80};
  const std::size_t padLen =
      bufferLen_ < 56 ? 56 - bufferLen_ : 120 - bufferLen_;
  storeLe(pad + padLen, totalBits_, 8);
  update(pad, padLen + 8);
  finalized_ = true;

  std::array<std::uint8_t, 16> out;
  for (int i = 0; i < 4; ++i) storeLe(out.data() + 4 * i, state_[i], 4);
  return out;
}

std::array<std::uint8_t, 16> Md5::hash(const void* data, std::size_t len) {
  Md5 h;
  h.update(data, len);
  return h.digest();
}

std::string Md5::toHex(const std::array<std::uint8_t, 16>& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

std::string Md5::hexDigest(const void* data, std::size_t len) {
  return toHex(hash(data, len));
}

std::array<std::uint8_t, 16> stripedMd5(const void* data, std::size_t len) {
  // One element per lane, written once with GCC vector extensions: the
  // compiler lowers it to the vector width the build targets (two SSE2
  // registers per value on the x86-64 baseline). The vectors stay inside
  // this function, so -Wpsabi has no by-value vector to warn about.
  using Lanes = std::uint32_t __attribute__((vector_size(4 * kMd5Lanes)));
  static_assert(16 * sizeof(Lanes) == kMd5StripeBytes);
  // loadWord reads the stripe in host order; that is the RFC's
  // little-endian word order only on a little-endian host.
  static_assert(std::endian::native == std::endian::little,
                "stripedMd5 reads host-order words");

  const auto* p = static_cast<const std::uint8_t*>(data);
  Lanes s[4];
  for (int i = 0; i < 4; ++i) s[i] = Lanes{} + kInit[i];
  for (std::size_t n = len / kMd5StripeBytes; n > 0;
       --n, p += kMd5StripeBytes)
    rounds(s, p);

  std::uint8_t states[16 * kMd5Lanes];
  for (std::size_t l = 0; l < kMd5Lanes; ++l)
    for (int i = 0; i < 4; ++i) storeLe(states + 16 * l + 4 * i, s[i][l], 4);
  std::uint8_t length[8];
  storeLe(length, len, 8);
  Md5 outer;
  outer.update(states, sizeof(states));
  outer.update(p, len % kMd5StripeBytes);
  outer.update(length, sizeof(length));
  return outer.digest();
}

}  // namespace awp
