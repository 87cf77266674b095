// FNV-1a 64-bit hashing: the one content hash of the code base.
//
// Users: v2 snapshot trailers and cache keys (meta), interprocedural
// summary signatures (analysis), per-site fault PRNG seeding (fault), and
// the fleet's hash ring and jitter (seeded differently, see hash_ring.hpp).
// Every value it produces is persisted or compared across processes, so the
// function and its constants must never change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace rca {

/// Standard FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// FNV-1a 64 of `bytes`, continuing from `seed` (the running hash when
/// hashing incrementally).
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnv1a64Basis) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Incremental FNV-1a 64 over a sequence of fields. Every add() is
/// length-prefixed, so ("ab","c") and ("a","bc") produce different digests;
/// integers are hashed as 8 little-endian bytes.
class ContentHash {
 public:
  ContentHash& add(std::string_view bytes) {
    add_u64(bytes.size());
    hash_ = fnv1a64(bytes, hash_);
    return *this;
  }
  ContentHash& add_u64(std::uint64_t value) {
    char le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    hash_ = fnv1a64(std::string_view(le, 8), hash_);
    return *this;
  }

  std::uint64_t digest() const { return hash_; }
  /// 16 lowercase hex digits (the snapshot cache file stem).
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return std::string(buf, 16);
  }

 private:
  std::uint64_t hash_ = kFnv1a64Basis;
};

}  // namespace rca
