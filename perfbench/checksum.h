// Order-insensitive result checksums shared by the in-process consumers
// and the HTTP clients, so both sides fold the same row to the same hash.
#ifndef PERFBENCH_CHECKSUM_H_
#define PERFBENCH_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace perfbench {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Incremental row hash: start from RowSeed(ts), then fold each value.
inline uint64_t RowSeed(int64_t ts) {
  return Mix64(static_cast<uint64_t>(ts) ^ 0x9e3779b97f4a7c15ULL);
}
inline uint64_t RowFoldInt(uint64_t h, int64_t v) {
  return Mix64(h ^ (static_cast<uint64_t>(v) + 0x632be59bd9b4e019ULL));
}
/// Non-integer values fold by their JSON text (FNV-1a), as the server
/// renders them.
inline uint64_t RowFoldText(uint64_t h, std::string_view text) {
  uint64_t f = 0xcbf29ce484222325ULL;
  for (char c : text) {
    f ^= static_cast<unsigned char>(c);
    f *= 0x100000001b3ULL;
  }
  return Mix64(h ^ f);
}

/// Multiset digest of one query's output: row count plus the wrapping
/// sum of row hashes.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t row_hash) {
    count += 1;
    sum += row_hash;
  }
  void Merge(const Digest& o) {
    count += o.count;
    sum += o.sum;
  }
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKSUM_H_
