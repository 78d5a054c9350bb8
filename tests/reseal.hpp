// Envelope surgery shared by the checkpoint suites (tests/test_fleet.cpp,
// tests/test_scenario.cpp): edit a geo::binio stream's payload and seal it
// again under the stream's own magic and version, so the decoder sees a
// CRC-valid envelope around exactly the edited bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "geo/binio.hpp"

namespace skyran::testbinio {

template <class Edit>
std::string reseal(const std::string& bytes, Edit edit) {
  const std::string magic = bytes.substr(0, 4);
  std::uint32_t version = 0;  // header bytes 4..8
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  std::istringstream in(bytes);
  std::string payload = geo::read_envelope(in, magic.c_str(), version, "reseal");
  edit(payload);
  geo::BinWriter w;
  w.bytes(payload.data(), payload.size());
  std::ostringstream out;
  geo::write_envelope(out, magic.c_str(), version, w);
  return out.str();
}

/// `bytes` with `value`'s bytes written over the payload at `offset`.
template <typename T>
std::string patched(const std::string& bytes, std::size_t offset, T value) {
  return reseal(bytes, [&](std::string& payload) {
    std::memcpy(payload.data() + offset, &value, sizeof(T));
  });
}

/// `bytes` with the envelope's version field (not covered by the CRC) set
/// to `version`.
inline std::string with_version(std::string bytes, std::uint32_t version) {
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  return bytes;
}

}  // namespace skyran::testbinio
