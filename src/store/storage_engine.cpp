#include "store/storage_engine.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/hash.hpp"
#include "common/serialize.hpp"

namespace dataflasks::store {

namespace fs = std::filesystem;

namespace {

// Journal records share LogStore's framing but carry their own magic (…07):
// pointing a LogStore at an engine journal (or vice versa) fails loudly at
// the first record instead of being misread as one long torn tail.
constexpr std::uint32_t kJournalMagic = 0xDF1A5C07;
constexpr std::size_t kJournalHeaderSize = 3 * sizeof(std::uint32_t);

constexpr std::uint32_t kSnapMagic = 0xDF54AB1E;
// u32 magic | u64 seq | u64 object_count | u64 body_len | u32 body_crc
constexpr std::size_t kSnapHeaderSize =
    sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
// Snapshot bodies stream through one buffer of about this size (a single
// larger object stretches it once), never a second serialized copy.
constexpr std::size_t kSnapChunk = 256 * 1024;

/// Parses the numeric suffix of "<prefix><digits>"; nullopt when `name`
/// doesn't match. Rejects empty/overlong/non-digit suffixes.
std::optional<std::uint64_t> generation_suffix(const std::string& name,
                                               const std::string& prefix) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(prefix.size());
  if (digits.size() > 19) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

std::size_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// Directory holding the generation files of `base`.
fs::path dir_of(const std::string& base) {
  fs::path dir = fs::path(base).parent_path();
  return dir.empty() ? fs::path(".") : dir;
}

struct Generations {
  std::vector<std::uint64_t> snaps;
  std::vector<std::uint64_t> journals;
};

/// Every "<base>.snap.<seq>" / "<base>.journal.<seq>" next to `base`.
Result<Generations> list_generations(const std::string& base) {
  const fs::path dir = dir_of(base);
  const std::string stem = fs::path(base).filename().string();
  Generations out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto s = generation_suffix(name, stem + ".snap.")) {
      out.snaps.push_back(*s);
    } else if (const auto j = generation_suffix(name, stem + ".journal.")) {
      out.journals.push_back(*j);
    }
  }
  if (ec) return Error::io("cannot scan " + dir.string() + ": " + ec.message());
  return out;
}

bool pwrite_all(int fd, ByteView bytes, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Makes a rename in `dir` durable.
bool fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return (::close(fd) == 0) && ok;
}

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StorageEngine::StorageEngine(std::string base_path)
    : base_(std::move(base_path)) {
  last_checkpoint_us_.store(steady_now_us(), std::memory_order_relaxed);
  open_status_ = recover();
}

StorageEngine::~StorageEngine() {
  wait_idle();
  if (journal_ != nullptr) std::fclose(journal_);
}

SnapshotWriter& SnapshotWriter::shared() {
  static SnapshotWriter writer;
  return writer;
}

SnapshotWriter::SnapshotWriter() : thread_([this] { run(); }) {}

SnapshotWriter::~SnapshotWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

void SnapshotWriter::post(UniqueFunction job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  wake_.notify_one();
}

void SnapshotWriter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping, and every queued job has run
    UniqueFunction job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();
    job = UniqueFunction();  // release the captured snapshot off the lock
    lock.lock();
  }
}

std::string StorageEngine::snap_path(std::uint64_t seq) const {
  return base_ + ".snap." + std::to_string(seq);
}

std::string StorageEngine::journal_path(std::uint64_t seq) const {
  return base_ + ".journal." + std::to_string(seq);
}

Status StorageEngine::recover() {
  std::error_code ec;
  fs::create_directories(dir_of(base_), ec);  // first boot of a fresh dir
  auto listed = list_generations(base_);
  if (!listed.ok()) return listed.error();
  std::vector<std::uint64_t>& snaps = listed.value().snaps;
  std::vector<std::uint64_t>& journals = listed.value().journals;
  std::sort(snaps.begin(), snaps.end(), std::greater<>());
  std::sort(journals.begin(), journals.end());

  // Newest loadable snapshot wins; a corrupt one falls back a generation,
  // loudly. Snapshots on disk but none loadable is refusal, not an empty
  // store — silent emptiness would let a wounded replica rejoin and spread
  // its amnesia through anti-entropy.
  std::uint64_t loaded_seq = 0;
  for (const std::uint64_t seq : snaps) {
    auto loaded = load_snapshot(snap_path(seq), seq);
    if (loaded.ok()) {
      recovery_.loaded_snapshot = true;
      recovery_.snapshot_seq = seq;
      recovery_.snapshot_objects = loaded.value();
      loaded_seq = seq;
      break;
    }
    recovery_.warnings.push_back("snapshot " + snap_path(seq) +
                                 " unusable, falling back: " +
                                 loaded.error().message);
  }
  if (!snaps.empty() && !recovery_.loaded_snapshot) {
    return Error::io("no loadable snapshot under " + base_ +
                     " (refusing to recover empty; see warnings)");
  }

  // Replay every journal of the loaded generation or later, oldest first.
  // Journals older than the snapshot are already folded into it.
  std::uint64_t newest = loaded_seq;
  for (const std::uint64_t seq : journals) {
    if (recovery_.loaded_snapshot && seq < loaded_seq) continue;
    auto replayed = replay_journal(seq);
    if (!replayed.ok()) return replayed.error();
    recovery_.records_replayed += replayed.value();
    ++recovery_.journals_replayed;
    newest = std::max(newest, seq);
  }

  // Appends continue into the newest generation's journal (created fresh on
  // first boot: generation 1).
  seq_ = std::max<std::uint64_t>(newest, 1);
  return open_journal(seq_);
}

Result<std::size_t> StorageEngine::load_snapshot(const std::string& path,
                                                 std::uint64_t expected_seq) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error::io("cannot open " + path);

  Bytes header(kSnapHeaderSize);
  if (std::fread(header.data(), header.size(), 1, f) != 1) {
    std::fclose(f);
    return Error::decode("truncated snapshot header");
  }
  Reader h(header);
  const std::uint32_t magic = h.u32();
  const std::uint64_t seq = h.u64();
  const std::uint64_t count = h.u64();
  const std::uint64_t body_len = h.u64();
  const std::uint32_t crc = h.u32();
  if (magic != kSnapMagic) {
    std::fclose(f);
    return Error::decode("bad snapshot magic");
  }
  if (seq != expected_seq) {
    std::fclose(f);
    return Error::decode("snapshot header seq " + std::to_string(seq) +
                         " does not match filename");
  }
  // Bound the body allocation by what is actually on disk: a bit-flipped
  // length field must fail here, not as a giant allocation.
  const std::size_t on_disk = file_size_or_zero(path);
  if (on_disk < kSnapHeaderSize || body_len != on_disk - kSnapHeaderSize) {
    std::fclose(f);
    return Error::decode("snapshot body length " + std::to_string(body_len) +
                         " does not match file size");
  }

  Bytes body(body_len);
  if (body_len > 0 && std::fread(body.data(), body.size(), 1, f) != 1) {
    std::fclose(f);
    return Error::decode("truncated snapshot body");
  }
  std::fclose(f);
  if (crc32(body.data(), body.size()) != crc) {
    return Error::decode("snapshot body CRC mismatch");
  }

  Reader r(body);
  std::size_t applied = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Object obj = decode_object(r);
    if (!r.ok()) break;
    if (apply(obj).ok()) ++applied;
  }
  if (!r.at_end() || applied != count) {
    // CRC passed but the stream is inconsistent (writer bug, not bit rot):
    // discard the partial load so a fallback generation starts clean.
    inner_.clear();
    while (!expiry_wheel_.empty()) expiry_wheel_.pop();
    lru_list_.clear();
    lru_index_.clear();
    return Error::decode("snapshot object stream is malformed");
  }
  return applied;
}

Result<std::size_t> StorageEngine::replay_journal(std::uint64_t seq) {
  const std::string path = journal_path(seq);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error::io("cannot open " + path);

  std::fseek(f, 0, SEEK_END);
  const long end_off = std::ftell(f);
  if (end_off < 0) {
    std::fclose(f);
    return Error::io("ftell failed on " + path);
  }
  const auto end = static_cast<std::size_t>(end_off);

  std::size_t pos = 0;
  std::size_t records = 0;
  std::fseek(f, 0, SEEK_SET);
  while (pos + kJournalHeaderSize <= end) {
    std::uint32_t header[3];
    std::fseek(f, static_cast<long>(pos), SEEK_SET);
    if (std::fread(header, sizeof header, 1, f) != 1) break;
    const std::uint32_t magic = header[0];
    const std::uint32_t crc = header[1];
    const std::uint32_t body_len = header[2];
    if (magic != kJournalMagic) break;
    if (pos + kJournalHeaderSize + body_len > end) break;  // torn write

    Bytes body(body_len);
    if (body_len > 0 && std::fread(body.data(), body_len, 1, f) != 1) break;
    if (crc32(body.data(), body.size()) != crc) break;  // corrupt record

    Reader r(body);
    const Object obj = decode_object(r);
    if (!r.finish().ok()) break;

    apply(obj);  // superseded/conflict replays are skips, not failures
    ++records;
    pos += kJournalHeaderSize + body_len;
  }
  std::fclose(f);

  if (pos < end) {
    // Torn or corrupt tail: cut it off so future appends land after a valid
    // record instead of behind garbage the next recovery cannot cross.
    recovery_.warnings.push_back(
        path + ": dropped " + std::to_string(end - pos) +
        " byte torn tail after " + std::to_string(records) + " records");
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Error::io("cannot truncate torn tail of " + path);
    }
  }
  return records;
}

Status StorageEngine::open_journal(std::uint64_t seq) {
  // Open the next journal before closing the current one: a failed roll
  // leaves appends flowing into the old generation.
  const std::string path = journal_path(seq);
  std::FILE* next = std::fopen(path.c_str(), "a+b");
  if (next == nullptr) return Error::io("cannot open journal: " + path);
  std::fseek(next, 0, SEEK_END);
  const long at = std::ftell(next);
  if (at < 0) {
    std::fclose(next);
    return Error::io("ftell failed on " + path);
  }
  if (journal_ != nullptr) std::fclose(journal_);
  journal_ = next;
  journal_end_.store(static_cast<std::size_t>(at),
                     std::memory_order_relaxed);
  return Status::ok_status();
}

Status StorageEngine::append_journal(const Object& obj) {
  Writer w(encoded_size(obj));
  encode(w, obj);
  const ByteView body = w.view();
  const std::uint32_t header[3] = {kJournalMagic,
                                   crc32(body.data(), body.size()),
                                   static_cast<std::uint32_t>(body.size())};
  if (std::fwrite(header, sizeof header, 1, journal_) != 1 ||
      (!body.empty() &&
       std::fwrite(body.data(), body.size(), 1, journal_) != 1)) {
    return Error::io("journal append failed on " + journal_path(seq_));
  }
  journal_end_.fetch_add(kJournalHeaderSize + body.size(),
                         std::memory_order_relaxed);
  return Status::ok_status();
}

Status StorageEngine::apply(const Object& obj) {
  Status s = inner_.put(obj);
  if (!s.ok()) return s;
  if (obj.tombstone) {
    // Deleted keys leave the eviction pool: dropping a tombstone early
    // would forget the delete before its grace period.
    lru_forget(obj.key);
  } else {
    lru_touch(obj.key);
    if (obj.expires_at != 0) {
      expiry_wheel_.push(ExpiryEntry{obj.expires_at, obj.key, obj.version});
    }
  }
  return s;
}

Status StorageEngine::put(const Object& obj) {
  if (!open_status_.ok()) return open_status_;
  const std::uint64_t before = inner_.mutation_rev();
  Status s = apply(obj);
  if (!s.ok()) return s;
  // Idempotent re-stores change nothing — skip the duplicate record.
  if (inner_.mutation_rev() == before) return s;
  return append_journal(obj);
}

Result<Object> StorageEngine::get(const Key& key,
                                  std::optional<Version> version) const {
  auto result = inner_.get(key, version);
  if (result.ok() && !result.value().tombstone) lru_touch(key);
  return result;
}

bool StorageEngine::contains(const Key& key, Version version) const {
  return inner_.contains(key, version);
}

Version StorageEngine::tombstone_version(const Key& key) const {
  return inner_.tombstone_version(key);
}

std::size_t StorageEngine::gc_tombstones(SimTime now, SimTime grace) {
  // Not journaled: replay resurrects the tombstone in memory and the next
  // GC pass re-drops it (deletion stamps are absolute). checkpoint() makes
  // the removal durable.
  return inner_.gc_tombstones(now, grace);
}

std::vector<DigestEntry> StorageEngine::digest() const {
  return inner_.digest();
}

const std::vector<DigestEntry>& StorageEngine::digest_entries() const {
  return inner_.digest_entries();
}

void StorageEngine::for_each(
    const std::function<void(const Object&)>& fn) const {
  inner_.for_each(fn);
}

std::vector<Object> StorageEngine::all() const { return inner_.all(); }

std::size_t StorageEngine::remove_keys_where(
    const std::function<bool(const Key&)>& predicate) {
  // Also not journaled (slice changes re-derive the predicate after
  // restart). The LRU list self-cleans: eviction skips vanished keys.
  return inner_.remove_keys_where(predicate);
}

ReapStats StorageEngine::reap(SimTime now, std::size_t max_bytes) {
  ReapStats stats;
  // Expiry: pop deadlines that have passed. Entries are validated lazily —
  // the version may be gone already (evicted, superseded by a tombstone,
  // sliced away), in which case the entry is just stale wheel residue.
  while (!expiry_wheel_.empty() && expiry_wheel_.top().expires_at <= now) {
    const ExpiryEntry entry = expiry_wheel_.top();
    expiry_wheel_.pop();
    const auto current = inner_.get(entry.key, entry.version);
    if (current.ok() && current.value().expired(now) &&
        inner_.erase_version(entry.key, entry.version)) {
      ++stats.expired;
      if (!inner_.get(entry.key, std::nullopt).ok()) lru_forget(entry.key);
    }
  }

  // Eviction: coldest keys first until the byte budget holds. Tombstoned
  // keys were already dropped from the list at delete time; keys removed
  // behind the list's back (slice changes) evaporate here without counting.
  if (max_bytes > 0) {
    while (inner_.value_bytes() > max_bytes && !lru_list_.empty()) {
      const Key victim = lru_list_.front();
      if (inner_.tombstone_version(victim) != 0) {
        lru_forget(victim);
        continue;
      }
      const std::size_t removed = inner_.erase_key(victim);
      lru_forget(victim);
      if (removed > 0) ++stats.evicted;
    }
    if (inner_.value_bytes() > max_bytes) {
      // LRU exhausted but still over budget (everything left is
      // tombstoned or untracked): fall back to the inner scan.
      const ReapStats rest = inner_.reap(now, max_bytes);
      stats.expired += rest.expired;
      stats.evicted += rest.evicted;
    }
  }
  return stats;
}

Result<std::size_t> StorageEngine::checkpoint() {
  if (!open_status_.ok()) return open_status_.error();
  wait_idle();  // never skipped: a write already in flight lands first
  begin_checkpoint();
  wait_idle();
  return take_write_result();
}

Result<std::size_t> StorageEngine::compact_storage() {
  if (!open_status_.ok()) return open_status_.error();
  if (!begin_checkpoint()) {
    checkpoints_skipped_.fetch_add(1, std::memory_order_relaxed);
  }
  return take_write_result();
}

bool StorageEngine::begin_checkpoint() {
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (write_in_flight_) return false;
    write_in_flight_ = true;
  }
  auto snap = capture();
  if (!snap.ok()) {
    finish_write(snap.error());
    return true;
  }
  SnapshotWriter::shared().post(
      [this, snap = std::move(snap.value())]() {
        finish_write(write_snapshot(snap));
      });
  return true;
}

Result<StorageEngine::Capture> StorageEngine::capture() {
  // Values and tombstones both: a snapshot that dropped tombstones could
  // resurrect deletes on the replay path.
  Capture snap;
  snap.seq = seq_ + 1;
  snap.objects.reserve(inner_.object_count());
  inner_.for_each([&snap](const Object& obj) { snap.objects.push_back(obj); });
  if (Status s = open_journal(snap.seq); !s.ok()) return s.error();
  seq_ = snap.seq;
  return snap;
}

Result<std::size_t> StorageEngine::write_snapshot(const Capture& snap) {
  // tmp + fsync + rename + directory fsync: the snapshot either exists whole
  // or not at all, and once it exists a power loss cannot undo the rename.
  const std::string tmp_path = base_ + ".snap.tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Error::io("cannot open " + tmp_path);

  // The body streams through one bounded buffer with a running CRC; the
  // header, which carries the body's length and CRC, goes last at offset 0.
  Writer chunk(kSnapChunk + kSnapChunk / 4);
  std::uint64_t body_len = 0;
  std::uint32_t crc = 0;
  bool ok = true;
  const auto drain = [&]() {
    const ByteView view = chunk.view();
    crc = crc32(view.data(), view.size(), crc);
    ok = ok && pwrite_all(fd, view, kSnapHeaderSize + body_len);
    body_len += view.size();
    chunk.clear();
  };
  for (const Object& obj : snap.objects) {
    encode(chunk, obj);
    if (chunk.size() >= kSnapChunk) drain();
    if (!ok) break;
  }
  drain();

  Writer header(kSnapHeaderSize);
  header.u32(kSnapMagic);
  header.u64(snap.seq);
  header.u64(snap.objects.size());
  header.u64(body_len);
  header.u32(crc);
  ok = ok && pwrite_all(fd, header.view(), 0) && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;  // close can report a deferred write error
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Error::io("snapshot write failed: " + tmp_path);
  }
  const std::string final_path = snap_path(snap.seq);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Error::io("snapshot rename failed: " + final_path);
  }
  // Until the directory is synced the rename may not survive a power loss
  // while the unlinks below would: no GC without it.
  if (!fsync_dir(dir_of(base_))) {
    return Error::io("cannot fsync the directory of " + final_path);
  }
  last_checkpoint_us_.store(steady_now_us(), std::memory_order_relaxed);
  return collect_garbage(snap.seq);
}

std::size_t StorageEngine::collect_garbage(std::uint64_t durable) const {
  // Keep the newest snapshot below `durable` — the fallback should the new
  // one prove corrupt — and every journal from it on. A generation whose
  // snapshot never landed (crash before the rename) has only a journal, so
  // the fallback can sit more than one generation back.
  const auto listed = list_generations(base_);
  if (!listed.ok()) return 0;
  const Generations& gens = listed.value();
  std::uint64_t fallback = 0;
  for (const std::uint64_t seq : gens.snaps) {
    if (seq < durable) fallback = std::max(fallback, seq);
  }
  std::size_t reclaimed = 0;
  const auto drop = [&reclaimed](const std::string& path) {
    const std::size_t bytes = file_size_or_zero(path);
    if (std::remove(path.c_str()) == 0) reclaimed += bytes;
  };
  for (const std::uint64_t seq : gens.snaps) {
    if (seq < fallback) drop(snap_path(seq));
  }
  for (const std::uint64_t seq : gens.journals) {
    if (seq < fallback) drop(journal_path(seq));
  }
  return reclaimed;
}

void StorageEngine::finish_write(Result<std::size_t> outcome) {
  // Notify under the lock: the destructor may be waiting, and once the lock
  // drops this engine may be gone.
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (outcome.ok()) {
    reclaimed_unreported_ += outcome.value();
  } else if (!write_error_.has_value()) {
    write_error_ = outcome.error();
  }
  write_in_flight_ = false;
  write_idle_.notify_all();
}

Result<std::size_t> StorageEngine::take_write_result() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (write_error_.has_value()) {
    Error error = std::move(*write_error_);
    write_error_.reset();
    return error;
  }
  return std::exchange(reclaimed_unreported_, 0);
}

void StorageEngine::wait_idle() {
  std::unique_lock<std::mutex> lock(write_mutex_);
  write_idle_.wait(lock, [this] { return !write_in_flight_; });
}

Status StorageEngine::sync() {
  if (!open_status_.ok()) return open_status_;
  if (std::fflush(journal_) != 0) {
    return Error::io("fflush failed on " + journal_path(seq_));
  }
  return Status::ok_status();
}

double StorageEngine::snapshot_age_seconds() const {
  const std::int64_t last =
      last_checkpoint_us_.load(std::memory_order_relaxed);
  return static_cast<double>(steady_now_us() - last) / 1e6;
}

void StorageEngine::lru_touch(const Key& key) const {
  const auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_list_.splice(lru_list_.end(), lru_list_, it->second);
  } else {
    lru_index_[key] = lru_list_.insert(lru_list_.end(), key);
  }
}

void StorageEngine::lru_forget(const Key& key) const {
  const auto it = lru_index_.find(key);
  if (it == lru_index_.end()) return;
  lru_list_.erase(it->second);
  lru_index_.erase(it);
}

}  // namespace dataflasks::store
