// Shared binary-envelope I/O for every on-disk format in the codebase, each
// written by one write_state(Sink&) walk and read by one BinReader walk:
//
//   SKYR v2  rem::RemStore (nested inside each SKYS payload)
//   SKYS v3  core::SkyRan, sealed as core::Snapshot: the single-UAV checkpoint
//   SKYF v2  fleet::Fleet
//   SKYD v2  scenario::Campaign; its payload ends with the fleet state
//            inline, so a campaign file holds one envelope
//
// One layout:
//
//   magic(4) | version(u32) | payload_size(u64) | crc32(u32) | payload
//
// The CRC covers the payload only; the writer sizes the payload with a
// counting walk and fills it (sized_payload) so the header can be emitted
// first, and the reader slurps + verifies the payload before a single field
// is parsed. A flipped byte anywhere is rejected:
// magic -> BinCorruptError, version -> BinVersionError, size -> truncation
// or CRC mismatch, payload/crc -> BinCorruptError. All integers and doubles
// are raw little-endian host representation (the project targets a single
// ABI; doubles round-trip bit-exactly).
//
// Every decoder shares two kinds of rejection: a BinFormatError subclass
// for bytes that are not a valid instance of the format (including CRC-valid
// fields that no save can hold), and StateMismatchError for valid bytes
// saved by another session. sim::GenerationStore keeps the SKYS and SKYD
// envelopes as crash-safe generation files and falls back past both kinds.
//
// The CRC is table-driven (slicing-by-8 over tables built at compile time)
// and reads the payload 4 bytes at a time, so it too assumes a little-endian
// host; the static_assert below refuses any other.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "geo/hash.hpp"

namespace skyran::geo {

/// Base class for every malformed-stream rejection. Derives from
/// std::runtime_error so pre-existing catch sites keep working.
struct BinFormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The stream ended before the format said it would.
struct BinTruncatedError : BinFormatError {
  using BinFormatError::BinFormatError;
};

/// Magic mismatch or CRC failure: the bytes are not (or are no longer) a
/// valid instance of the format.
struct BinCorruptError : BinFormatError {
  using BinFormatError::BinFormatError;
};

/// The envelope parsed but carries a version this build cannot read.
struct BinVersionError : BinFormatError {
  using BinFormatError::BinFormatError;
};

/// Valid bytes, wrong session: the state was saved by a session whose seed,
/// resume-relevant config or population differs from the restoring one's.
/// Not a BinFormatError — the bytes are fine — but a checkpoint walk
/// (sim::GenerationStore::restore_latest) skips it the same way.
struct StateMismatchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

static_assert(std::endian::native == std::endian::little,
              "binio stores host-order integers and its CRC loads them as little-endian");

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Table 0 is the byte-at-a-time CRC table for poly 0xEDB88320; table k
/// advances a byte's contribution past k further zero bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (~(c & 1u) + 1u));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incremental CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), slicing-by-8:
/// 8 input bytes per step through 8 tables, then a byte-wise tail.
class Crc32 {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    const auto& t = detail::kCrc32Tables;
    std::uint32_t s = state_;
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= s;
      s = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) s = (s >> 8) ^ t[0][(s ^ *p) & 0xFFu];
    state_ = s;
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  static std::uint32_t of(std::string_view bytes) {
    Crc32 c;
    c.update(bytes.data(), bytes.size());
    return c.value();
  }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// Payload builder: accumulates fields into a buffer so the envelope writer
/// can prepend size + CRC.
class BinWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "BinWriter::pod needs a trivial type");
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Make room for `n` payload bytes in total, so appends up to that size
  /// never regrow the buffer.
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }

  /// Overwrite the bytes at `at` with `v`: a header field whose value is
  /// known only once the payload behind it is written.
  template <typename T>
  void patch(std::size_t at, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "BinWriter::patch needs a trivial type");
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  const std::string& buffer() const& { return buf_; }
  std::string buffer() && { return std::move(buf_); }

 private:
  std::string buf_;
};

/// A u64 element count, then the elements' raw bytes: a string or a vector
/// of trivial elements, as BinReader::str / BinReader::vec read them back.
template <class Sink, class Range>
void write_counted(Sink& sink, const Range& elems) {
  sink.pod(static_cast<std::uint64_t>(std::size(elems)));
  sink.bytes(std::data(elems), std::size(elems) * sizeof(*std::data(elems)));
}

/// The payload `walk(sink)` writes, in a buffer sized by one counting walk
/// first: `walk` takes any pod()/bytes() sink and must emit the same bytes
/// on both calls.
template <class Walk>
std::string sized_payload(const Walk& walk) {
  ByteCount count;
  walk(count);
  BinWriter w;
  w.reserve(count.value());
  walk(w);
  return std::move(w).buffer();
}

inline constexpr std::size_t kEnvelopeHeaderBytes = 20;

/// `walk`'s payload as a complete envelope behind a u64 length, written
/// straight into an outer payload. The payload is walked once: a counting
/// pass only counts it, a BinWriter writes it in place and fills in the
/// length, size and CRC after it, and any other sink takes those bytes.
template <class Sink, class Walk>
void nested_envelope(Sink& sink, const char magic[4], std::uint32_t version, const Walk& walk) {
  if constexpr (std::is_same_v<Sink, ByteCount>) {
    sink.bytes(nullptr, sizeof(std::uint64_t) + kEnvelopeHeaderBytes);
    walk(sink);
  } else if constexpr (std::is_same_v<Sink, BinWriter>) {
    const std::size_t at = sink.size();
    sink.pod(std::uint64_t{0});  // length, patched below
    sink.bytes(magic, 4);
    sink.pod(version);
    sink.pod(std::uint64_t{0});  // payload size, patched below
    sink.pod(std::uint32_t{0});  // CRC, patched below
    const std::size_t payload_at = sink.size();
    walk(sink);
    const std::size_t size = sink.size() - payload_at;
    sink.patch(at, static_cast<std::uint64_t>(kEnvelopeHeaderBytes + size));
    sink.patch(payload_at - 12, static_cast<std::uint64_t>(size));
    sink.patch(payload_at - 4, Crc32::of(std::string_view(sink.buffer()).substr(payload_at)));
  } else {
    BinWriter w;
    nested_envelope(w, magic, version, walk);
    sink.bytes(w.buffer().data(), w.size());
  }
}

/// Payload parser over an in-memory, CRC-verified buffer. Throws
/// BinTruncatedError on any read past the end — a prefix of a valid payload
/// can never parse as a shorter valid one.
class BinReader {
 public:
  explicit BinReader(std::string_view payload) : p_(payload.data()), end_(p_ + payload.size()) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "BinReader::pod needs a trivial type");
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  /// Copy the next n bytes into `out`: the bulk counterpart of
  /// BinWriter::bytes.
  void bytes(void* out, std::size_t n) {
    if (n > 0) std::memcpy(out, take(n), n);
  }

  void skip(std::size_t n) { take(n); }

  std::string str() {
    const std::size_t n = count(1);
    return std::string(take(n), n);
  }

  /// A vector write_counted() wrote.
  template <typename T>
  std::vector<T> vec() {
    std::vector<T> v(count(sizeof(T)));
    bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// u64 element count, refused with BinTruncatedError when the rest of the
  /// payload cannot hold that many elements of at least `min_elem_bytes`
  /// each. Like read_envelope's size field, a corrupt count then cannot
  /// reach resize/reserve as std::length_error or std::bad_alloc.
  std::size_t count(std::size_t min_elem_bytes) {
    const auto n = pod<std::uint64_t>();
    if (n > remaining() / min_elem_bytes)
      throw BinTruncatedError("binio: element count exceeds payload");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  const char* take(std::size_t n) {
    if (remaining() < n) throw BinTruncatedError("binio: truncated payload");
    const char* at = p_;
    p_ += n;
    return at;
  }

  const char* p_;
  const char* end_;
};

/// Emit the full envelope for `payload` under `magic` (exactly 4 bytes).
inline void write_envelope(std::ostream& os, const char magic[4], std::uint32_t version,
                           std::string_view payload) {
  os.write(magic, 4);
  const auto write_pod = [&os](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_pod(version);
  write_pod(static_cast<std::uint64_t>(payload.size()));
  write_pod(Crc32::of(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Read and verify one envelope; returns its payload. `context` prefixes
/// every error message (e.g. "RemStore::load"). A version other than
/// `version` throws BinVersionError. The stream is consumed exactly through
/// the payload; trailing bytes (e.g. an enclosing container) are left
/// unread.
inline std::string read_envelope(std::istream& is, const char magic[4], std::uint32_t version,
                                 const std::string& context) {
  char m[4];
  is.read(m, 4);
  if (!is) throw BinTruncatedError(context + ": truncated header");
  if (std::memcmp(m, magic, 4) != 0) throw BinCorruptError(context + ": bad magic");
  const auto read_pod = [&is, &context](auto& v) {
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!is) throw BinTruncatedError(context + ": truncated header");
  };
  std::uint32_t found = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  read_pod(found);
  if (found != version)
    throw BinVersionError(context + ": unsupported version " + std::to_string(found));
  read_pod(size);
  read_pod(crc);
  std::string payload;
  // Chunked read: never pre-allocate the declared size. A corrupted size
  // field can claim exabytes; trusting it would turn a flipped byte into
  // std::bad_alloc instead of a typed truncation error. Memory grows only
  // with bytes the stream actually delivers.
  constexpr std::uint64_t kChunk = 1 << 20;
  while (static_cast<std::uint64_t>(payload.size()) < size) {
    const std::uint64_t want =
        std::min(kChunk, size - static_cast<std::uint64_t>(payload.size()));
    const std::size_t off = payload.size();
    payload.resize(off + static_cast<std::size_t>(want));
    is.read(payload.data() + off, static_cast<std::streamsize>(want));
    if (static_cast<std::uint64_t>(is.gcount()) != want)
      throw BinTruncatedError(context + ": truncated payload");
  }
  if (Crc32::of(payload) != crc) throw BinCorruptError(context + ": CRC mismatch");
  return payload;
}

}  // namespace skyran::geo
