// Checkpointed storage engine: the durable Data Store for v2.
//
// Layout on disk — numbered generations next to a base path:
//
//   <base>.snap.<seq>     one stream of live objects + tombstones behind a
//                         CRC'd header (u32 magic | u64 seq | u64 count |
//                         u64 body_len | u32 body_crc), written atomically
//                         (tmp + fsync + rename + directory fsync)
//   <base>.journal.<seq>  mutations accepted since snap.<seq>, in LogStore
//                         record framing (u32 magic | u32 crc | u32 len |
//                         body = the wire Object codec)
//
// Restart loads the newest valid snapshot, then replays every journal of
// that generation or later — O(snapshot + tail) instead of O(history).
// A corrupt snapshot falls back to the previous generation *loudly*
// (recovery().warnings); snapshots present but none loadable is an open
// error, never a silently empty store. A torn journal tail is truncated at
// the last whole record, also loudly.
//
// A checkpoint is two steps. Capture runs on the caller, under whatever
// lock serializes the engine: it copies the live set's Object handles
// (payloads are refcounted, no value bytes move) and rolls the journal to
// generation N+1 — nothing else. Write runs on the process's one
// SnapshotWriter thread: it streams the captured set through a bounded
// buffer with a running CRC into <base>.snap.tmp, writes the header last,
// fsyncs, renames to snap.<N+1>, fsyncs the directory, and only then
// deletes generations older than the fallback. A crash anywhere in between
// leaves snap.<N> plus journals N and N+1 — exactly what recovery replays.
//
// Removals (tombstone GC, expiry, eviction, slice-change drops) are NOT
// journaled: replay may resurrect them in memory, and the same timers that
// removed them remove them again — safe because TTL deadlines and deletion
// stamps are absolute, and cheaper than journaling every reap. A checkpoint
// makes removals durable by rewriting the live set.
//
// TTL and eviction: an expiry wheel (min-heap over deadlines, lazily
// validated) makes reap() proportional to what actually expired, and an
// exact LRU list (touched on put/get) picks eviction victims when
// value bytes exceed the reap budget. Tombstoned keys are never evicted.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/unique_function.hpp"
#include "store/memstore.hpp"
#include "store/store.hpp"

namespace dataflasks::store {

/// The process's background snapshot writer: one thread running posted jobs
/// in order, so a checkpoint's encode/write/fsync never stalls the shard
/// loop that asked for it. Started on first use; destruction finishes the
/// queued jobs and joins the thread.
class SnapshotWriter {
 public:
  static SnapshotWriter& shared();

  SnapshotWriter();
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void post(UniqueFunction job);

 private:
  void run();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<UniqueFunction> jobs_;
  bool stopping_ = false;
  std::thread thread_;
};

class StorageEngine final : public Store {
 public:
  /// What recovery found, for the boot log line and tests.
  struct RecoveryInfo {
    bool loaded_snapshot = false;
    std::uint64_t snapshot_seq = 0;
    std::size_t snapshot_objects = 0;
    std::size_t journals_replayed = 0;
    std::size_t records_replayed = 0;
    /// Non-fatal anomalies recovery worked around (corrupt snapshot fell
    /// back a generation, torn journal tail truncated). Loud by contract:
    /// the server prints every line at boot.
    std::vector<std::string> warnings;
  };

  /// Opens (creating if absent) the generation files next to `base_path`
  /// and recovers. Check open_status() before use.
  explicit StorageEngine(std::string base_path);
  ~StorageEngine() override;

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  [[nodiscard]] const Status& open_status() const { return open_status_; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return recovery_; }

  Status put(const Object& obj) override;
  [[nodiscard]] Result<Object> get(
      const Key& key, std::optional<Version> version) const override;
  [[nodiscard]] bool contains(const Key& key, Version version) const override;
  [[nodiscard]] Version tombstone_version(const Key& key) const override;
  std::size_t gc_tombstones(SimTime now, SimTime grace) override;
  [[nodiscard]] std::vector<DigestEntry> digest() const override;
  [[nodiscard]] const std::vector<DigestEntry>& digest_entries()
      const override;
  void for_each(const std::function<void(const Object&)>& fn) const override;
  [[nodiscard]] std::vector<Object> all() const override;
  std::size_t remove_keys_where(
      const std::function<bool(const Key&)>& predicate) override;
  [[nodiscard]] std::size_t object_count() const override {
    return inner_.object_count();
  }
  [[nodiscard]] std::size_t value_bytes() const override {
    return inner_.value_bytes();
  }
  ReapStats reap(SimTime now, std::size_t max_bytes) override;
  [[nodiscard]] std::uint64_t mutation_rev() const override {
    return inner_.mutation_rev();
  }
  [[nodiscard]] StoreBreakdown breakdown() const override {
    return inner_.breakdown();
  }

  /// Checkpoints synchronously: waits out a write already in flight, then
  /// captures snapshot generation seq+1 and waits for its write. Older
  /// generations go once it is durable; the newest snapshot below it stays
  /// as the fallback. Returns bytes reclaimed on disk (including any earlier
  /// background write not yet reported), or the first write error.
  Result<std::size_t> checkpoint();
  /// The periodic checkpoint: captures now and leaves the write to the
  /// SnapshotWriter. Returns what earlier background writes reclaimed (or
  /// the error one of them hit). While this engine's previous write is
  /// still in flight the call is skipped — counted, never queued.
  Result<std::size_t> compact_storage() override;

  /// Flushes buffered journal appends to the OS.
  Status sync();

  [[nodiscard]] std::uint64_t generation() const { return seq_; }
  /// Journal-tail length: bytes appended since the last checkpoint.
  /// Atomic load — safe from the metrics thread while a shard appends.
  [[nodiscard]] std::size_t journal_bytes() const {
    return journal_end_.load(std::memory_order_relaxed);
  }
  /// Seconds since the last durable checkpoint (or since open, before the
  /// first). Also safe cross-thread (atomic timestamp).
  [[nodiscard]] double snapshot_age_seconds() const;
  /// compact_storage() calls skipped because a write was still in flight.
  [[nodiscard]] std::uint64_t checkpoints_skipped() const {
    return checkpoints_skipped_.load(std::memory_order_relaxed);
  }

 private:
  struct ExpiryEntry {
    SimTime expires_at = 0;
    Key key;
    Version version = 0;
    /// Min-heap order: the soonest deadline on top.
    friend bool operator>(const ExpiryEntry& a, const ExpiryEntry& b) {
      return a.expires_at > b.expires_at;
    }
  };

  /// One checkpoint's frozen view: the generation it becomes and the live
  /// set's handles at the journal roll.
  struct Capture {
    std::uint64_t seq = 0;
    std::vector<Object> objects;
  };

  [[nodiscard]] std::string snap_path(std::uint64_t seq) const;
  [[nodiscard]] std::string journal_path(std::uint64_t seq) const;

  Status recover();
  /// Loads a snapshot file into `inner_`; returns the object count.
  Result<std::size_t> load_snapshot(const std::string& path,
                                    std::uint64_t expected_seq);
  /// Replays one journal; returns records applied. A torn tail truncates
  /// the file and appends a warning instead of failing.
  Result<std::size_t> replay_journal(std::uint64_t seq);
  /// Opens (creating if absent) journal.<seq> for appends.
  Status open_journal(std::uint64_t seq);
  Status append_journal(const Object& obj);

  /// Capture, then hand the write to the SnapshotWriter; false (nothing
  /// done) while a write is already in flight.
  bool begin_checkpoint();
  /// Copies the live set's handles and rolls the journal to seq+1. Runs
  /// under the caller's lock, like every other mutation.
  Result<Capture> capture();
  /// Writer thread: writes, fsyncs and renames snap.<seq>, then GCs.
  /// Touches no engine state but the base path and atomics.
  Result<std::size_t> write_snapshot(const Capture& snap);
  /// Deletes generations older than the newest snapshot below `durable`.
  [[nodiscard]] std::size_t collect_garbage(std::uint64_t durable) const;
  void finish_write(Result<std::size_t> outcome);
  Result<std::size_t> take_write_result();
  void wait_idle();

  /// Stores into `inner_` and maintains the expiry wheel and LRU list —
  /// everything put() does except journaling; recovery replay uses it too.
  Status apply(const Object& obj);
  // const: reads refresh recency through the Store's const read API.
  void lru_touch(const Key& key) const;
  void lru_forget(const Key& key) const;

  std::string base_;
  Status open_status_;
  RecoveryInfo recovery_;
  MemStore inner_;

  std::uint64_t seq_ = 0;  ///< current generation (journal in progress)
  std::FILE* journal_ = nullptr;
  /// Atomic only so the server's metrics renderer can read journal_bytes()
  /// and snapshot age from another thread; all writes stay on the owner
  /// (the owning shard serializes mutations through ShardedStore's locks).
  std::atomic<std::size_t> journal_end_{0};
  std::atomic<std::int64_t> last_checkpoint_us_{0};
  std::atomic<std::uint64_t> checkpoints_skipped_{0};

  /// Background-write state, shared with the writer thread.
  std::mutex write_mutex_;
  std::condition_variable write_idle_;
  bool write_in_flight_ = false;
  std::size_t reclaimed_unreported_ = 0;
  std::optional<Error> write_error_;

  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                      std::greater<ExpiryEntry>>
      expiry_wheel_;
  // Exact LRU over keys: list front = coldest. Mutable because reads
  // (get) refresh recency behind the Store's const read API.
  mutable std::list<Key> lru_list_;
  mutable std::unordered_map<Key, std::list<Key>::iterator> lru_index_;
};

}  // namespace dataflasks::store
