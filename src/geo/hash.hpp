// Shared hashing primitives: the splitmix64 finalizer, the counter-based
// uniform draw built on it, and an incremental FNV-1a hasher.
//
// Fnv1a and ByteCount have the same pod()/bytes() shape as geo::BinWriter,
// so one write_state(Sink&) can feed a checkpoint payload, a state hash or a
// size count: the hash then covers exactly the bytes the checkpoint
// persists, and the count sizes the payload buffer before it is written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace skyran::geo {

/// splitmix64 finalizer: decorrelates a counter into 64 hash bits.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [0, 1) from a (seed, stream, idx) counter: no state, no order
/// dependence.
constexpr double u01(std::uint64_t seed, std::uint64_t stream, std::uint64_t idx) {
  return static_cast<double>(mix64(seed ^ mix64(stream ^ mix64(idx))) >> 11) * 0x1.0p-53;
}

/// Incremental 64-bit FNV-1a over raw host bytes.
class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t basis = 0xcbf29ce484222325ULL) : h_(basis) {}

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "Fnv1a::pod needs a trivial type");
    bytes(&v, sizeof(T));
  }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = h_;  // a local: p may alias h_, which would pin it to memory
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
    h_ = h;
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// Counts the bytes a write_state(Sink&) walk would emit, writing nothing.
class ByteCount {
 public:
  template <typename T>
  void pod(const T&) {
    static_assert(std::is_trivially_copyable_v<T>, "ByteCount::pod needs a trivial type");
    n_ += sizeof(T);
  }

  void bytes(const void*, std::size_t n) { n_ += n; }

  std::size_t value() const { return n_; }

 private:
  std::size_t n_ = 0;
};

}  // namespace skyran::geo
