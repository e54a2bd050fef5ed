#include "common/hash.hpp"

#include "common/ensure.hpp"

namespace dataflasks {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t stable_key_hash(std::string_view key) {
  std::uint64_t x = fnv1a64(key);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

std::uint32_t hash_to_bucket(std::uint64_t hash, std::uint32_t buckets) {
  ensure(buckets > 0, "hash_to_bucket: zero buckets");
  return static_cast<std::uint32_t>(
      (static_cast<__uint128_t>(hash) * buckets) >> 64);
}

namespace {

struct Crc32Table {
  std::uint32_t entries[256];

  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xedb88320U ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    c = table.entries[(c ^ p[i]) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

}  // namespace dataflasks
