#include "store/sharded_store.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/ensure.hpp"

namespace dataflasks::store {

ShardedStore::ShardedStore(std::vector<std::unique_ptr<Store>> partitions) {
  ensure(!partitions.empty(), "ShardedStore: needs at least one partition");
  partitions_.reserve(partitions.size());
  for (auto& store : partitions) {
    ensure(store != nullptr, "ShardedStore: null partition");
    auto p = std::make_unique<Partition>();
    p->store = std::move(store);
    partitions_.push_back(std::move(p));
  }

  // Constructor runs before any shard thread exists, so the rebalance needs
  // no locks: collect every recovered object living in the wrong partition
  // (durable restart across a --shards change), re-home it, then drop it
  // from where it was. Tombstones migrate like values, so a delete still
  // supersedes a late replica copy after the move.
  if (partitions_.size() > 1) {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      std::vector<Object> misplaced;
      partitions_[i]->store->for_each([&](const Object& obj) {
        if (partition_of(obj.key, partitions_.size()) != i) {
          misplaced.push_back(obj);
        }
      });
      if (misplaced.empty()) continue;
      for (const Object& obj : misplaced) {
        home_of(obj.key).store->put(obj);
      }
      partitions_[i]->store->remove_keys_where([&](const Key& key) {
        return partition_of(key, partitions_.size()) != i;
      });
      rebalanced_ += misplaced.size();
    }
  }
}

Status ShardedStore::put(const Object& obj) {
  Partition& p = home_of(obj.key);
  std::lock_guard<std::mutex> lock(p.mutex);
  Status s = p.store->put(obj);
  if (s.ok()) mark_dirty();
  return s;
}

CasOutcome ShardedStore::compare_and_put(const Object& obj,
                                         Version expected) {
  Partition& p = home_of(obj.key);
  std::lock_guard<std::mutex> lock(p.mutex);
  // Delegating under the partition lock makes the inner read-compare-write
  // atomic against every other accessor of this partition.
  CasOutcome out = p.store->compare_and_put(obj, expected);
  if (out.status == CasOutcome::Status::kStored) mark_dirty();
  return out;
}

Result<Object> ShardedStore::get(const Key& key,
                                 std::optional<Version> version) const {
  Partition& p = home_of(key);
  std::lock_guard<std::mutex> lock(p.mutex);
  return p.store->get(key, version);
}

Version ShardedStore::tombstone_version(const Key& key) const {
  Partition& p = home_of(key);
  std::lock_guard<std::mutex> lock(p.mutex);
  return p.store->tombstone_version(key);
}

std::size_t ShardedStore::gc_tombstones(SimTime now, SimTime grace) {
  std::size_t removed = 0;
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    removed += p->store->gc_tombstones(now, grace);
  }
  if (removed > 0) mark_dirty();
  return removed;
}

bool ShardedStore::contains(const Key& key, Version version) const {
  Partition& p = home_of(key);
  std::lock_guard<std::mutex> lock(p.mutex);
  return p.store->contains(key, version);
}

std::vector<DigestEntry> ShardedStore::digest() const {
  std::vector<DigestEntry> out;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    const std::vector<DigestEntry> part = p->store->digest();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const std::vector<DigestEntry>& ShardedStore::digest_entries() const {
  // Shard-0-only by contract (anti-entropy and state transfer both live
  // there), so the merged vector needs no lock of its own — only the
  // per-partition locks while copying entries out.
  if (digest_dirty_.exchange(false, std::memory_order_acq_rel)) {
    merged_digest_.clear();
    for (const auto& p : partitions_) {
      std::lock_guard<std::mutex> lock(p->mutex);
      const std::vector<DigestEntry>& part = p->store->digest_entries();
      merged_digest_.insert(merged_digest_.end(), part.begin(), part.end());
    }
  }
  return merged_digest_;
}

void ShardedStore::for_each(
    const std::function<void(const Object&)>& fn) const {
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    p->store->for_each(fn);
  }
}

std::vector<Object> ShardedStore::all() const {
  std::vector<Object> out;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    std::vector<Object> part = p->store->all();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

std::size_t ShardedStore::remove_keys_where(
    const std::function<bool(const Key&)>& predicate) {
  std::size_t removed = 0;
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    removed += p->store->remove_keys_where(predicate);
  }
  if (removed > 0) mark_dirty();
  return removed;
}

std::size_t ShardedStore::object_count() const {
  std::size_t count = 0;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    count += p->store->object_count();
  }
  return count;
}

std::size_t ShardedStore::value_bytes() const {
  std::size_t bytes = 0;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    bytes += p->store->value_bytes();
  }
  return bytes;
}

ReapStats ShardedStore::reap(SimTime now, std::size_t max_bytes) {
  // The satellite bugfix lives here: before this, only put/delete paths
  // marked the merged digest dirty, so a reap could leave anti-entropy
  // advertising keys the expiry wheel had already removed — and a peer pull
  // for such a key would come back empty every round, forever.
  const std::size_t per_partition =
      max_bytes == 0 ? 0
                     : std::max<std::size_t>(max_bytes / partitions_.size(), 1);
  ReapStats stats;
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    const ReapStats part = p->store->reap(now, per_partition);
    stats.expired += part.expired;
    stats.evicted += part.evicted;
  }
  if (stats.expired > 0 || stats.evicted > 0) mark_dirty();
  return stats;
}

Result<std::size_t> ShardedStore::compact_storage() {
  // Each partition captures under its own lock; durable partitions write
  // their snapshots off-lock on the background writer. One failing
  // partition does not stop the others from checkpointing.
  std::size_t reclaimed = 0;
  std::optional<Error> failure;
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    auto part = p->store->compact_storage();
    if (part.ok()) {
      reclaimed += part.value();
    } else if (!failure.has_value()) {
      failure = part.error();
    }
  }
  if (failure.has_value()) return *failure;
  return reclaimed;
}

StoreBreakdown ShardedStore::breakdown() const {
  StoreBreakdown out;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mutex);
    const StoreBreakdown part = p->store->breakdown();
    out.live_objects += part.live_objects;
    out.live_bytes += part.live_bytes;
    out.tombstone_objects += part.tombstone_objects;
  }
  return out;
}

}  // namespace dataflasks::store
