// StorageEngine: snapshot + journal-tail recovery, checkpoint compaction,
// background snapshot writes (puts racing an in-flight write, a crash
// between the journal roll and the rename, fallback-preserving GC, skipped
// ticks), TTL expiry / LRU eviction, and torn-write robustness. The fuzz tests cut
// or flip the on-disk files at every byte position and assert the contract:
// recovery is loud (warnings / open error) and never silently empty.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/log_store.hpp"
#include "store/sharded_store.hpp"
#include "store/storage_engine.hpp"

namespace dataflasks::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory; removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("df_engine_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }

  [[nodiscard]] std::string base() const {
    return (path / "dataflasks-0").string();
  }

  fs::path path;
};

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Object live(const std::string& key, Version version, std::uint8_t fill,
            std::size_t size = 8) {
  return Object{key, version, Payload(Bytes(size, fill))};
}

TEST(StorageEngine, FreshDirectoryOpensEmpty) {
  TempDir dir("fresh");
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.open_status().ok());
  EXPECT_EQ(engine.object_count(), 0u);
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_FALSE(engine.recovery().loaded_snapshot);
  EXPECT_TRUE(engine.recovery().warnings.empty());
}

TEST(StorageEngine, JournalTailAloneRecovers) {
  TempDir dir("tail");
  {
    StorageEngine engine(dir.base());
    ASSERT_TRUE(engine.open_status().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.put(live("k" + std::to_string(i), 1, 0xAA)).ok());
    }
    ASSERT_TRUE(engine.sync().ok());
  }
  StorageEngine reopened(dir.base());
  ASSERT_TRUE(reopened.open_status().ok());
  EXPECT_EQ(reopened.object_count(), 10u);
  EXPECT_FALSE(reopened.recovery().loaded_snapshot);
  EXPECT_EQ(reopened.recovery().records_replayed, 10u);
  EXPECT_TRUE(reopened.contains("k7", 1));
}

TEST(StorageEngine, SnapshotPlusTailRecovers) {
  TempDir dir("snaptail");
  {
    StorageEngine engine(dir.base());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine.put(live("snap" + std::to_string(i), 1, 0x01)).ok());
    }
    auto reclaimed = engine.checkpoint();
    ASSERT_TRUE(reclaimed.ok());
    EXPECT_EQ(engine.generation(), 2u);
    // Post-checkpoint writes land in the new journal: the tail.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine.put(live("tail" + std::to_string(i), 1, 0x02)).ok());
    }
    ASSERT_TRUE(engine.sync().ok());
  }
  StorageEngine reopened(dir.base());
  ASSERT_TRUE(reopened.open_status().ok());
  EXPECT_TRUE(reopened.recovery().loaded_snapshot);
  EXPECT_EQ(reopened.recovery().snapshot_seq, 2u);
  EXPECT_EQ(reopened.recovery().snapshot_objects, 20u);
  EXPECT_EQ(reopened.recovery().records_replayed, 5u);
  EXPECT_EQ(reopened.object_count(), 25u);
  EXPECT_TRUE(reopened.contains("snap3", 1));
  EXPECT_TRUE(reopened.contains("tail4", 1));
}

TEST(StorageEngine, CheckpointKeepsTwoGenerationsAndReclaimsOlder) {
  TempDir dir("gens");
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.put(live("a", 1, 0x01)).ok());
  ASSERT_TRUE(engine.checkpoint().ok());  // -> gen 2
  ASSERT_TRUE(engine.put(live("b", 1, 0x02)).ok());
  auto second = engine.checkpoint();  // -> gen 3, reclaims gen 1
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value(), 0u);
  EXPECT_EQ(engine.generation(), 3u);

  EXPECT_TRUE(fs::exists(dir.base() + ".snap.2"));
  EXPECT_TRUE(fs::exists(dir.base() + ".snap.3"));
  EXPECT_FALSE(fs::exists(dir.base() + ".journal.1"));
  EXPECT_FALSE(fs::exists(dir.base() + ".snap.1"));
}

TEST(StorageEngine, IdempotentRePutIsNotJournaled) {
  TempDir dir("idem");
  StorageEngine engine(dir.base());
  const Object obj = live("same", 3, 0x11);
  ASSERT_TRUE(engine.put(obj).ok());
  const std::size_t after_first = engine.journal_bytes();
  ASSERT_TRUE(engine.put(obj).ok());  // no-op replay (same key+version)
  EXPECT_EQ(engine.journal_bytes(), after_first);
}

TEST(StorageEngine, TombstonesSurviveCheckpointAndRestart) {
  TempDir dir("tomb");
  {
    StorageEngine engine(dir.base());
    ASSERT_TRUE(engine.put(live("gone", 1, 0x01)).ok());
    ASSERT_TRUE(engine.put(Object::make_tombstone("gone", 2, 100)).ok());
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  StorageEngine reopened(dir.base());
  ASSERT_TRUE(reopened.open_status().ok());
  EXPECT_EQ(reopened.tombstone_version("gone"), 2u);
}

// ---- background snapshot writes ---------------------------------------------------

/// Keeps the process's snapshot writer busy until release(): a snapshot
/// write posted meanwhile stays in flight, queued behind the gate.
class WriterGate {
 public:
  WriterGate() {
    SnapshotWriter::shared().post(
        [opened = open_.get_future()]() { opened.wait(); });
  }
  ~WriterGate() { release(); }
  WriterGate(const WriterGate&) = delete;
  WriterGate& operator=(const WriterGate&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    open_.set_value();
  }

 private:
  std::promise<void> open_;
  bool released_ = false;
};

/// Returns once every job posted to the writer so far has run.
void drain_writer() {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  SnapshotWriter::shared().post([done]() { done->set_value(); });
  finished.wait();
}

std::unique_ptr<ShardedStore> sharded_engines(const std::string& base) {
  std::vector<std::unique_ptr<Store>> parts;
  for (int k = 0; k < 2; ++k) {
    auto engine =
        std::make_unique<StorageEngine>(base + "-p" + std::to_string(k));
    EXPECT_TRUE(engine->open_status().ok());
    parts.push_back(std::move(engine));
  }
  return std::make_unique<ShardedStore>(std::move(parts));
}

TEST(StorageEngineCheckpoint, PutsDuringAnInFlightWriteSurviveRestart) {
  TempDir dir("inflight");
  constexpr int kCaptured = 200;
  constexpr int kDuring = 100;
  {
    auto store = sharded_engines(dir.base());
    for (int i = 0; i < kCaptured; ++i) {
      ASSERT_TRUE(store->put(live("cap" + std::to_string(i), 1, 0x01)).ok());
    }
    WriterGate gate;
    ASSERT_TRUE(store->compact_storage().ok());  // captured, write queued
    // Half the tail lands while the write waits, half races it: the writer
    // thread encodes the captured handles while this thread takes the same
    // partition locks to put.
    for (int i = 0; i < kDuring; ++i) {
      if (i == kDuring / 2) gate.release();
      ASSERT_TRUE(store->put(live("tail" + std::to_string(i), 1, 0x02)).ok());
      ASSERT_TRUE(store->put(live("cap" + std::to_string(i), 2, 0x03)).ok());
    }
  }  // destruction waits for the writes
  auto reopened = sharded_engines(dir.base());
  for (int i = 0; i < kCaptured; ++i) {
    EXPECT_TRUE(reopened->contains("cap" + std::to_string(i), 1)) << i;
  }
  for (int i = 0; i < kDuring; ++i) {
    EXPECT_TRUE(reopened->contains("tail" + std::to_string(i), 1)) << i;
    EXPECT_TRUE(reopened->contains("cap" + std::to_string(i), 2)) << i;
  }
  // Every object came from exactly one place: the snapshot holds what was
  // captured, the generation-2 journal everything after the roll.
  std::size_t from_snapshot = 0;
  std::size_t from_journal = 0;
  for (int k = 0; k < 2; ++k) {
    StorageEngine part(dir.base() + "-p" + std::to_string(k));
    ASSERT_TRUE(part.open_status().ok());
    EXPECT_EQ(part.recovery().snapshot_seq, 2u);
    EXPECT_TRUE(part.recovery().warnings.empty());
    from_snapshot += part.recovery().snapshot_objects;
    from_journal += part.recovery().records_replayed;
  }
  EXPECT_EQ(from_snapshot, static_cast<std::size_t>(kCaptured));
  EXPECT_EQ(from_journal, static_cast<std::size_t>(2 * kDuring));
}

/// Leaves `crash` holding what a crash between a checkpoint's journal roll
/// and its rename leaves on disk: snap.2, journals 2 and 3, a half-written
/// snap.tmp and no snap.3. "a*" keys are in snap.2, "b*" only in journal 2,
/// "c*" only in journal 3.
void crash_between_roll_and_rename(const TempDir& live_dir,
                                   const TempDir& crash) {
  StorageEngine engine(live_dir.base());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.put(live("a" + std::to_string(i), 1, 0x0A)).ok());
  }
  ASSERT_TRUE(engine.checkpoint().ok());  // snap.2
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.put(live("b" + std::to_string(i), 1, 0x0B)).ok());
  }
  WriterGate gate;
  ASSERT_TRUE(engine.compact_storage().ok());  // journal rolled to 3
  ASSERT_EQ(engine.generation(), 3u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.put(live("c" + std::to_string(i), 1, 0x0C)).ok());
  }
  ASSERT_TRUE(engine.sync().ok());
  for (const auto& entry : fs::directory_iterator(live_dir.path)) {
    fs::copy_file(entry.path(), crash.path / entry.path().filename());
  }
  write_file(crash.base() + ".snap.tmp", Bytes(40, 0x5A));
  ASSERT_FALSE(fs::exists(crash.base() + ".snap.3"));
}

void expect_abc(const StorageEngine& engine) {
  for (int i = 0; i < 10; ++i) {
    for (const char* prefix : {"a", "b", "c"}) {
      EXPECT_TRUE(engine.contains(prefix + std::to_string(i), 1))
          << prefix << i;
    }
  }
}

TEST(StorageEngineCheckpoint, CrashBeforeRenameRecoversFromPreviousSnapshot) {
  TempDir live_dir("roll_live");
  TempDir crash("roll_crash");
  crash_between_roll_and_rename(live_dir, crash);

  StorageEngine engine(crash.base());
  ASSERT_TRUE(engine.open_status().ok());
  EXPECT_EQ(engine.recovery().snapshot_seq, 2u);
  EXPECT_EQ(engine.recovery().snapshot_objects, 10u);
  EXPECT_EQ(engine.recovery().journals_replayed, 2u);
  EXPECT_EQ(engine.recovery().records_replayed, 20u);
  EXPECT_EQ(engine.generation(), 3u);  // appends continue into journal 3
  EXPECT_EQ(engine.object_count(), 30u);
  expect_abc(engine);
}

TEST(StorageEngineCheckpoint, GcNeverUnlinksTheLastDurableFallback) {
  TempDir live_dir("gc_live");
  TempDir crash("gc_crash");
  crash_between_roll_and_rename(live_dir, crash);
  {
    StorageEngine engine(crash.base());
    ASSERT_TRUE(engine.open_status().ok());
    ASSERT_TRUE(engine.checkpoint().ok());  // snap.4; snap.3 never landed
  }
  // snap.2 is the newest snapshot below snap.4, so it and every journal
  // from it on stay: a corrupt snap.4 must still have a way back.
  EXPECT_TRUE(fs::exists(crash.base() + ".snap.2"));
  EXPECT_TRUE(fs::exists(crash.base() + ".journal.2"));
  EXPECT_TRUE(fs::exists(crash.base() + ".journal.3"));
  const std::string snap4 = crash.base() + ".snap.4";
  Bytes mutated = read_file(snap4);
  ASSERT_FALSE(mutated.empty());
  mutated.back() ^= 0xFF;
  write_file(snap4, mutated);
  {
    StorageEngine engine(crash.base());
    ASSERT_TRUE(engine.open_status().ok());
    EXPECT_EQ(engine.recovery().snapshot_seq, 2u);
    EXPECT_FALSE(engine.recovery().warnings.empty());
    expect_abc(engine);
    // The next durable snapshot finally retires generations 2 and 3.
    ASSERT_TRUE(engine.checkpoint().ok());  // snap.5, fallback snap.4
  }
  EXPECT_TRUE(fs::exists(crash.base() + ".snap.4"));
  EXPECT_FALSE(fs::exists(crash.base() + ".snap.2"));
  EXPECT_FALSE(fs::exists(crash.base() + ".journal.3"));
}

TEST(StorageEngineCheckpoint, TickDuringAnInFlightWriteIsSkippedNotQueued) {
  TempDir dir("skip");
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.put(live("k", 1, 0x01)).ok());
  {
    WriterGate gate;
    ASSERT_TRUE(engine.compact_storage().ok());
    EXPECT_EQ(engine.generation(), 2u);
    ASSERT_TRUE(engine.compact_storage().ok());  // write 2 still in flight
    ASSERT_TRUE(engine.compact_storage().ok());
    EXPECT_EQ(engine.checkpoints_skipped(), 2u);
    EXPECT_EQ(engine.generation(), 2u);  // nothing captured, journal kept
  }
  drain_writer();
  EXPECT_TRUE(fs::exists(dir.base() + ".snap.2"));
  EXPECT_FALSE(fs::exists(dir.base() + ".snap.3"));  // skips were not queued
  EXPECT_EQ(engine.generation(), 2u);
  ASSERT_TRUE(engine.compact_storage().ok());  // idle again: this one runs
  EXPECT_EQ(engine.generation(), 3u);
  EXPECT_EQ(engine.checkpoints_skipped(), 2u);
}

// ---- torn-write fuzz ---------------------------------------------------------------

/// Builds one journal with `records` puts and returns its bytes.
Bytes build_journal(TempDir& dir, int records) {
  StorageEngine engine(dir.base());
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(engine.put(live("j" + std::to_string(i), 1, 0x33)).ok());
  }
  EXPECT_TRUE(engine.sync().ok());
  return read_file(dir.base() + ".journal.1");
}

TEST(StorageEngineFuzz, JournalTruncatedAtEveryPrefixRecoversLoudly) {
  TempDir dir("trunc");
  const Bytes full = build_journal(dir, 4);
  ASSERT_GT(full.size(), 0u);
  ASSERT_EQ(full.size() % 4, 0u);  // identical keys/values: equal records
  const std::size_t record = full.size() / 4;
  const std::string journal = dir.base() + ".journal.1";

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_file(journal, Bytes(full.begin(),
                              full.begin() + static_cast<std::ptrdiff_t>(cut)));
    StorageEngine engine(dir.base());
    ASSERT_TRUE(engine.open_status().ok()) << "cut at " << cut;
    // Exactly the whole records before the cut are recovered; a torn
    // remainder is reported, never swallowed (a cut on a record boundary
    // loses nothing and warns about nothing).
    EXPECT_EQ(engine.object_count(), cut / record) << "cut at " << cut;
    EXPECT_EQ(engine.recovery().warnings.empty(), cut % record == 0)
        << "cut at " << cut;
    // Appends after a truncated tail must land on a valid boundary: a new
    // put followed by reopen sees exactly recovered + 1 objects.
    const std::size_t recovered = engine.object_count();
    ASSERT_TRUE(engine.put(live("fresh", 9, 0x44)).ok());
    ASSERT_TRUE(engine.sync().ok());
    StorageEngine reopened(dir.base());
    ASSERT_TRUE(reopened.open_status().ok()) << "cut at " << cut;
    EXPECT_EQ(reopened.object_count(), recovered + 1) << "cut at " << cut;
    EXPECT_TRUE(reopened.contains("fresh", 9)) << "cut at " << cut;
  }
}

TEST(StorageEngineFuzz, JournalBitFlipAtEveryByteNeverCrashesOrOverReads) {
  TempDir dir("flip");
  const Bytes full = build_journal(dir, 3);
  ASSERT_EQ(full.size() % 3, 0u);
  const std::size_t record = full.size() / 3;
  const std::string journal = dir.base() + ".journal.1";

  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    Bytes mutated = full;
    mutated[pos] ^= 0x80;
    write_file(journal, mutated);
    StorageEngine engine(dir.base());
    // A flipped byte breaks a magic, a CRC or a length: replay stops at the
    // damaged record, recovers every record before it, and warns.
    ASSERT_TRUE(engine.open_status().ok()) << "flip at " << pos;
    EXPECT_EQ(engine.object_count(), pos / record) << "flip at " << pos;
    EXPECT_FALSE(engine.recovery().warnings.empty()) << "flip at " << pos;
  }
}

TEST(StorageEngineFuzz, OnlySnapshotCorruptRefusesToOpenEmpty) {
  TempDir dir("refuse");
  {
    StorageEngine engine(dir.base());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.put(live("s" + std::to_string(i), 1, 0x55)).ok());
    }
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  // The checkpoint rolled the journal: delete it so the snapshot is the only
  // copy, then damage the snapshot at every header byte. With no fallback
  // generation the engine must refuse to open — an empty store would let a
  // wounded replica spread its amnesia through anti-entropy.
  fs::remove(dir.base() + ".journal.2");
  const std::string snap = dir.base() + ".snap.2";
  const Bytes full = read_file(snap);
  const std::size_t header = 4 + 8 + 8 + 8 + 4;
  ASSERT_GT(full.size(), header);

  for (std::size_t cut = 0; cut < header; ++cut) {
    write_file(snap, Bytes(full.begin(),
                           full.begin() + static_cast<std::ptrdiff_t>(cut)));
    StorageEngine engine(dir.base());
    EXPECT_FALSE(engine.open_status().ok()) << "cut at " << cut;
    EXPECT_EQ(engine.object_count(), 0u);
    EXPECT_FALSE(engine.recovery().warnings.empty()) << "cut at " << cut;
  }
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    Bytes mutated = full;
    mutated[pos] ^= 0x01;
    write_file(snap, mutated);
    StorageEngine engine(dir.base());
    EXPECT_FALSE(engine.open_status().ok()) << "flip at " << pos;
    EXPECT_FALSE(engine.recovery().warnings.empty()) << "flip at " << pos;
  }
}

TEST(StorageEngineFuzz, CorruptNewestSnapshotFallsBackOneGeneration) {
  TempDir dir("fallback");
  {
    StorageEngine engine(dir.base());
    ASSERT_TRUE(engine.put(live("old", 1, 0x01)).ok());
    ASSERT_TRUE(engine.checkpoint().ok());  // snap.2 holds {old}
    ASSERT_TRUE(engine.put(live("new", 1, 0x02)).ok());
    ASSERT_TRUE(engine.checkpoint().ok());  // snap.3 holds {old, new}
  }
  // Flip one body byte of the newest snapshot: recovery falls back to
  // snap.2 and replays journal.2 (which also carries "new") — loudly.
  const std::string snap3 = dir.base() + ".snap.3";
  Bytes mutated = read_file(snap3);
  mutated[mutated.size() - 1] ^= 0xFF;
  write_file(snap3, mutated);

  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.open_status().ok());
  EXPECT_TRUE(engine.recovery().loaded_snapshot);
  EXPECT_EQ(engine.recovery().snapshot_seq, 2u);
  ASSERT_FALSE(engine.recovery().warnings.empty());
  EXPECT_NE(engine.recovery().warnings.front().find(".snap.3"),
            std::string::npos);
  EXPECT_TRUE(engine.contains("old", 1));
  EXPECT_TRUE(engine.contains("new", 1));
}

// ---- TTL / eviction ----------------------------------------------------------------

TEST(StorageEngine, ReapExpiresOnlyPastDeadlines) {
  TempDir dir("ttl");
  StorageEngine engine(dir.base());
  Object soon = live("soon", 1, 0x01);
  soon.expires_at = 100;
  Object later = live("later", 1, 0x02);
  later.expires_at = 1000;
  ASSERT_TRUE(engine.put(soon).ok());
  ASSERT_TRUE(engine.put(later).ok());
  ASSERT_TRUE(engine.put(live("forever", 1, 0x03)).ok());

  EXPECT_EQ(engine.reap(50, 0).expired, 0u);
  const ReapStats stats = engine.reap(500, 0);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_FALSE(engine.contains("soon", 1));
  EXPECT_TRUE(engine.contains("later", 1));
  EXPECT_TRUE(engine.contains("forever", 1));
}

TEST(StorageEngine, EvictionDropsColdestFirstAndSparesTombstones) {
  TempDir dir("lru");
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.put(live("cold", 1, 0x01, 100)).ok());
  ASSERT_TRUE(engine.put(live("warm", 1, 0x02, 100)).ok());
  ASSERT_TRUE(engine.put(live("hot", 1, 0x03, 100)).ok());
  ASSERT_TRUE(engine.put(Object::make_tombstone("deleted", 1, 10)).ok());
  // Reads refresh recency: "cold" stays untouched and is evicted first.
  (void)engine.get("warm", std::nullopt);
  (void)engine.get("hot", std::nullopt);

  const ReapStats stats = engine.reap(0, 250);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_FALSE(engine.contains("cold", 1));
  EXPECT_TRUE(engine.contains("warm", 1));
  EXPECT_TRUE(engine.contains("hot", 1));
  // Tombstones are deletes, not cache entries: never eviction victims.
  EXPECT_EQ(engine.tombstone_version("deleted"), 1u);
}

TEST(StorageEngine, ReapedRemovalsAreReReapedAfterRestart) {
  TempDir dir("rereap");
  {
    StorageEngine engine(dir.base());
    Object obj = live("transient", 1, 0x01);
    obj.expires_at = 100;
    ASSERT_TRUE(engine.put(obj).ok());
    EXPECT_EQ(engine.reap(200, 0).expired, 1u);
    ASSERT_TRUE(engine.sync().ok());
  }
  // Removals are not journaled: replay resurrects the object in memory,
  // but its absolute deadline has still passed — the next reap (the node
  // runs one every reap period) removes it again before any read path
  // would serve it.
  StorageEngine reopened(dir.base());
  ASSERT_TRUE(reopened.open_status().ok());
  EXPECT_TRUE(reopened.contains("transient", 1));
  EXPECT_EQ(reopened.reap(200, 0).expired, 1u);
  EXPECT_FALSE(reopened.contains("transient", 1));
}

TEST(StorageEngine, CheckpointMakesReapsDurable) {
  TempDir dir("durable_reap");
  {
    StorageEngine engine(dir.base());
    Object obj = live("transient", 1, 0x01);
    obj.expires_at = 100;
    ASSERT_TRUE(engine.put(obj).ok());
    ASSERT_TRUE(engine.put(live("kept", 1, 0x02)).ok());
    EXPECT_EQ(engine.reap(200, 0).expired, 1u);
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  StorageEngine reopened(dir.base());
  ASSERT_TRUE(reopened.open_status().ok());
  EXPECT_FALSE(reopened.contains("transient", 1));
  EXPECT_TRUE(reopened.contains("kept", 1));
  EXPECT_EQ(reopened.recovery().records_replayed, 0u);
}

TEST(StorageEngine, BreakdownCountsLiveAndTombstoneSeparately) {
  TempDir dir("breakdown");
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.put(live("a", 1, 0x01, 10)).ok());
  ASSERT_TRUE(engine.put(live("b", 1, 0x02, 20)).ok());
  ASSERT_TRUE(engine.put(Object::make_tombstone("c", 1, 5)).ok());
  const StoreBreakdown b = engine.breakdown();
  EXPECT_EQ(b.live_objects, 2u);
  EXPECT_EQ(b.live_bytes, 30u);
  EXPECT_EQ(b.tombstone_objects, 1u);
}

// Recovery-cost contrast with the legacy full-replay log: once most of a
// cache workload has expired and a checkpoint folded the reaps in, the
// engine recovers from a snapshot holding only the survivors while the
// append-only log retains (and would replay) every historical record.
TEST(StorageEngine, CheckpointBoundsRecoveryWorkUnlikeFullReplay) {
  TempDir dir("contrast");
  const std::string log_path = (dir.path / "legacy.log").string();
  constexpr int kRecords = 500;
  constexpr int kSurvivors = 25;
  {
    StorageEngine engine(dir.base());
    LogStore log(log_path);
    for (int i = 0; i < kRecords; ++i) {
      Object obj = live("k" + std::to_string(i), 1, 0x07, 32);
      if (i >= kSurvivors) obj.expires_at = 100;  // cache-mode churn
      ASSERT_TRUE(engine.put(obj).ok());
      ASSERT_TRUE(log.put(obj).ok());
    }
    EXPECT_EQ(engine.reap(200, 0).expired,
              static_cast<std::size_t>(kRecords - kSurvivors));
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  StorageEngine engine(dir.base());
  ASSERT_TRUE(engine.open_status().ok());
  EXPECT_EQ(engine.recovery().records_replayed, 0u);
  EXPECT_EQ(engine.recovery().snapshot_objects,
            static_cast<std::size_t>(kSurvivors));
  const std::size_t snapshot_bytes = read_file(dir.base() + ".snap.2").size();
  const std::size_t log_bytes = read_file(log_path).size();
  // 25 survivors vs 500 historical records: an order of magnitude less to
  // read (and apply) at the next boot.
  EXPECT_LT(snapshot_bytes * 10, log_bytes);
}

}  // namespace
}  // namespace dataflasks::store
