#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

/// The byte layer under every binary and hashed format in the repo
/// (tmu-axi-trace-v1, tmu-soc-snapshot-v1, the state codec, SocDesc and
/// campaign fingerprints): one little-endian integer codec, one
/// checksum and one whole-file reader.
namespace sim {

/// Little-endian fixed-width integer codec (the byte order of every
/// integer in the trace and snapshot formats).
template <typename U>
  requires std::is_unsigned_v<U>
inline void put_le(unsigned char* p, U x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &x, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      p[i] = static_cast<unsigned char>(x >> (8 * i));
    }
  }
}

template <typename U>
  requires std::is_unsigned_v<U>
inline U get_le(const unsigned char* p) {
  U x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) x |= U(p[i]) << (8 * i);
  }
  return x;
}

/// Appends `x` little-endian to a byte buffer (std::string or
/// std::vector<unsigned char>).
template <typename U, typename Bytes>
  requires std::is_unsigned_v<U>
inline void append_le(Bytes& out, U x) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(U));
  put_le(reinterpret_cast<unsigned char*>(out.data()) + at, x);
}

/// FNV-1a 64: the repo's stable cross-process fingerprint (SocDesc::hash
/// over its canonical JSON, campaign spec hashes, slice checksums, the
/// snapshot image checksum).
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Reads the whole file at `path`; nullopt if it cannot be opened or
/// read. Callers wrap the failure in their own named error.
inline std::optional<std::string> read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string bytes;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.append(chunk, n);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return std::nullopt;
  return bytes;
}

}  // namespace sim
