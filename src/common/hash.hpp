// Stable hashing used for key -> slice mapping and DHT identifiers.
// Stability matters: hashes are part of the protocol (all nodes must agree
// on where a key lives), so std::hash (implementation-defined) is not usable.
#pragma once

#include <cstdint>
#include <string_view>

namespace dataflasks {

/// FNV-1a 64-bit over bytes; fast and good enough for key spreading.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Final avalanche mix (SplitMix64 finalizer) applied on top of FNV-1a so
/// that near-identical keys land far apart in the hash space.
[[nodiscard]] std::uint64_t stable_key_hash(std::string_view key);

/// Combine two hashes (boost::hash_combine recipe, 64-bit variant).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// Maps a 64-bit hash uniformly onto [0, buckets). Requires buckets > 0.
/// Uses the multiply-shift trick so distribution quality matches the hash.
[[nodiscard]] std::uint32_t hash_to_bucket(std::uint64_t hash,
                                           std::uint32_t buckets);

/// CRC-32 (IEEE 802.3 polynomial). Used by the log-structured store to
/// detect torn/corrupt records during recovery. Chains like zlib's:
/// crc32(b, crc32(a)) == crc32(a ++ b), so a stream can be summed in chunks.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t crc = 0);

}  // namespace dataflasks
