// Byte-level serialization for protocol messages. Everything that crosses
// the (simulated) wire is encoded through these, so message sizes reported
// by benches are real and decode failures are exercised by tests.
//
// Encoding: little-endian fixed-width integers, length-prefixed strings and
// vectors (u32 length). No alignment requirements, no padding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/payload.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace dataflasks {

/// Builds encodings directly inside a Payload's refcounted buffer, so
/// take_payload() is a pointer hand-off: one allocation per encoded message
/// (exactly one when the encoder reserves its size up front), zero copies.
class Writer {
 public:
  Writer() = default;

  /// Pre-sizes the buffer: encoders that know their message size do one
  /// allocation instead of log(n) regrows.
  explicit Writer(std::size_t reserve_hint) { reserve(reserve_hint); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() {
    if (buf_ != nullptr) Payload::deallocate(buf_);
  }

  void reserve(std::size_t n) {
    if (buf_ == nullptr || buf_->capacity < n) grow(n);
  }

  void u8(std::uint8_t v) { append(&v, 1); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void node_id(NodeId id) { u64(id.value); }
  void request_id(RequestId r) {
    u64(r.client);
    u64(r.seq);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  /// Length-prefixed byte block. ByteView converts implicitly from both
  /// `Bytes` and `Payload`, so either can be embedded without copying first.
  void bytes(ByteView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
  }

  /// Raw bytes with no length prefix: for framing layers that have already
  /// written an explicit length field of their own.
  void raw(ByteView b) { append(b.data(), b.size()); }

  /// Encodes a vector via a per-element callback: `vec(v, [&](const T& t){...})`.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& encode_one) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) encode_one(item);
  }

  /// The bytes encoded so far; valid until the next mutation or take.
  [[nodiscard]] ByteView view() const {
    return ByteView(buf_ != nullptr ? buf_->data() : nullptr, size_);
  }

  /// Copies the encoded bytes out as a mutable vector (cold paths: disk
  /// records, fuzz fixtures). Hot paths use take_payload() instead.
  [[nodiscard]] Bytes take() {
    Bytes out(view().begin(), view().end());
    size_ = 0;
    return out;
  }

  /// Hands the encoded buffer to an immutable shared Payload — no copy, and
  /// the buffer is shared across any fan-out afterwards.
  [[nodiscard]] Payload take_payload() {
    if (buf_ == nullptr || size_ == 0) {
      size_ = 0;
      return Payload();
    }
    Payload out(buf_, size_);
    buf_ = nullptr;
    size_ = 0;
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Forgets the encoded bytes but keeps the buffer, for chunked streaming.
  void clear() { size_ = 0; }

 private:
  void append(const void* data, std::size_t n) {
    if (n == 0) return;
    if (buf_ == nullptr || buf_->capacity - size_ < n) grow(size_ + n);
    std::memcpy(buf_->data() + size_, data, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  void grow(std::size_t min_capacity) {
    std::size_t capacity = buf_ != nullptr ? buf_->capacity : 0;
    capacity = std::max<std::size_t>({min_capacity, 2 * capacity, 64});
    Payload::Ctrl* bigger = Payload::allocate(capacity);
    if (buf_ != nullptr) {
      std::memcpy(bigger->data(), buf_->data(), size_);
      Payload::deallocate(buf_);
    }
    buf_ = bigger;
  }

  Payload::Ctrl* buf_ = nullptr;
  std::uint32_t size_ = 0;
};

/// Reader tracks a failure flag instead of throwing: malformed input from
/// the network is a normal (tested) condition, not a bug. Callers check
/// `ok()` once after decoding a whole message.
class Reader {
 public:
  explicit Reader(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  // Exact-match overload: keeps `Reader r(bytes)` unambiguous now that
  // Bytes converts to both ByteView and Payload.
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Owner-aware reader: `payload()` hands out zero-copy sub-views of the
  /// underlying shared buffer instead of copying embedded byte blocks.
  explicit Reader(const Payload& p)
      : data_(p.data()), size_(p.size()), owner_(p) {}

  std::uint8_t u8() { return read_scalar<std::uint8_t>(); }
  std::uint16_t u16() { return read_scalar<std::uint16_t>(); }
  std::uint32_t u32() { return read_scalar<std::uint32_t>(); }
  std::uint64_t u64() { return read_scalar<std::uint64_t>(); }
  std::int64_t i64() { return read_scalar<std::int64_t>(); }
  double f64() { return read_scalar<double>(); }
  bool boolean() { return u8() != 0; }

  NodeId node_id() { return NodeId(u64()); }
  RequestId request_id() {
    RequestId r;
    r.client = u64();
    r.seq = u64();
    return r;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  /// Length-prefixed byte block as a Payload. Zero-copy (a sub-view of the
  /// shared buffer) when this Reader was constructed from a Payload; falls
  /// back to copying otherwise.
  Payload payload() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    Payload out = owner_.data() != nullptr
                      ? owner_.subview(pos_, n)
                      : Payload::copy_of(ByteView(data_ + pos_, n));
    pos_ += n;
    return out;
  }

  /// Decodes a vector via a per-element callback returning T.
  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& decode_one) {
    const std::uint32_t n = u32();
    // Guard: each element needs >= 1 byte, so n can never exceed what's left.
    if (n > remaining()) {
      fail();
      return {};
    }
    std::vector<T> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) out.push_back(decode_one());
    return out;
  }

  /// Marks the input malformed. For decoders that meet an invalid tag or
  /// out-of-range field rather than a short read.
  void invalidate() { fail(); }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return ok() && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Convenience: converts decode state into a Status.
  [[nodiscard]] Status finish() const {
    if (!ok()) return Error::decode("truncated or malformed message");
    if (pos_ != size_) return Error::decode("trailing bytes after message");
    return Status::ok_status();
  }

 private:
  template <typename T>
  T read_scalar() {
    if (!check(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool check(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      fail();
      return false;
    }
    return true;
  }

  void fail() { failed_ = true; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  Payload owner_;  ///< set when reading from a Payload (zero-copy sub-views)
};

// ---- Endpoint codec ---------------------------------------------------------
// Shared by every message that carries a gossiped address (PSS descriptors,
// slice adverts, transport discovery probes), so the wire layout of an
// endpoint is defined exactly once.

inline void encode_endpoint(Writer& w, const Endpoint& e) {
  w.u32(e.ip);
  w.u16(e.port);
  w.u64(e.stamp);
}

[[nodiscard]] inline Endpoint decode_endpoint(Reader& r) {
  Endpoint e;
  e.ip = r.u32();
  e.port = r.u16();
  e.stamp = r.u64();
  return e;
}

/// Optional endpoint: a tag byte, then the fields. Simulated nodes have no
/// endpoint to advertise, so absence is the common sim-path case.
///
/// Tags: 0 = absent; 1 = UDP-only endpoint (the pre-stream layout, still
/// emitted whenever stream_port == 0 so old decoders keep working); 2 = the
/// same fields followed by a u16 stream port. Unknown tags fail the decode —
/// they are malformed input, not "v-next with extra fields".
inline void encode_endpoint_opt(Writer& w, const std::optional<Endpoint>& e) {
  if (!e.has_value()) {
    w.u8(0);
    return;
  }
  w.u8(e->stream_port != 0 ? 2 : 1);
  encode_endpoint(w, *e);
  if (e->stream_port != 0) w.u16(e->stream_port);
}

[[nodiscard]] inline std::optional<Endpoint> decode_endpoint_opt(Reader& r) {
  const std::uint8_t tag = r.u8();
  if (tag == 0) return std::nullopt;
  if (tag != 1 && tag != 2) {
    r.invalidate();
    return std::nullopt;
  }
  Endpoint e = decode_endpoint(r);
  if (tag == 2) e.stream_port = r.u16();
  if (!r.ok()) return std::nullopt;
  return e;
}

[[nodiscard]] constexpr std::size_t encoded_size_endpoint_opt(
    const std::optional<Endpoint>& e) {
  if (!e.has_value()) return 1;
  return 1 + sizeof(std::uint32_t) + sizeof(std::uint16_t) +
         sizeof(std::uint64_t) +
         (e->stream_port != 0 ? sizeof(std::uint16_t) : 0);
}

}  // namespace dataflasks
