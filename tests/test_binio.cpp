// CRC-32 oracle for geo::binio: the slicing-by-8 Crc32 must give the same
// value as the plain bit-at-a-time loop on every length, alignment and
// update split, since every stored checkpoint carries that value.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "geo/binio.hpp"

namespace skyran::geo {
namespace {

/// The plain bit-at-a-time CRC-32 (reflected, poly 0xEDB88320): the
/// reference the table-driven Crc32 must match.
std::uint32_t reference_crc32(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t s = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= p[i];
    for (int b = 0; b < 8; ++b) s = (s >> 1) ^ (0xEDB88320u & (~(s & 1u) + 1u));
  }
  return s ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng() & 0xFFu);
  return s;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32::of(""), 0x00000000u);
  EXPECT_EQ(Crc32::of("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32::of("123456789"), 0xCBF43926u);
  EXPECT_EQ(reference_crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const std::string buf = random_bytes(256 + 8, 1);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::string_view v(buf.data() + off, len);
      ASSERT_EQ(Crc32::of(v), reference_crc32(v.data(), v.size()))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnMultiMegabyteBuffer) {
  const std::string buf = random_bytes(std::size_t{5} << 20, 2);
  EXPECT_EQ(Crc32::of(buf), reference_crc32(buf.data(), buf.size()));
}

TEST(Crc32Test, SplitUpdatesEqualOneShot) {
  const std::string buf = random_bytes(300, 3);
  const std::uint32_t whole = Crc32::of(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    Crc32 c;
    c.update(buf.data(), cut);
    c.update(buf.data() + cut, buf.size() - cut);
    ASSERT_EQ(c.value(), whole) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace skyran::geo
