// Deterministic fuzzing of every wire codec: truncations at every prefix
// length and seeded random byte mutations must never crash a decoder —
// malformed network input is a normal condition, handled by returning
// nullopt (or a failed Reader), never by UB or exceptions.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "net/stream/stream_frame.hpp"
#include "pss/view.hpp"

namespace dataflasks {
namespace {

struct CodecCase {
  const char* name;
  std::function<Payload()> make_valid;  ///< encoders emit immutable Payloads
  std::function<void(const Bytes&)> decode;  ///< must not throw / crash
};

/// A mixed current-protocol envelope: put + TTL'd put + latest-get +
/// versioned-get + delete + compare-and-put + stats, so the truncation
/// sweep crosses every per-type field layout (v2's expected-version field,
/// v3's ttl_ms field), and a tombstone object so the flags/deleted_at path
/// is fuzzed too.
Payload valid_envelope() {
  core::OpEnvelope envelope;
  envelope.ops.push_back(core::RoutedOp{
      RequestId{1, 2},
      core::Operation::put("some-key", 7, Bytes{1, 2, 3, 4, 5})});
  envelope.ops.push_back(core::RoutedOp{
      RequestId{1, 8},
      core::Operation::put("ttl-key", 8, Bytes{6}, /*ttl_ms=*/30'000)});
  envelope.ops.push_back(
      core::RoutedOp{RequestId{1, 3}, core::Operation::get("latest-key")});
  envelope.ops.push_back(core::RoutedOp{
      RequestId{1, 4}, core::Operation::get("versioned-key", Version{2})});
  envelope.ops.push_back(
      core::RoutedOp{RequestId{1, 5}, core::Operation::del("dead-key", 9)});
  envelope.ops.push_back(core::RoutedOp{
      RequestId{1, 6},
      core::Operation::cas("guarded-key", 7, 12, Bytes{6, 7})});
  envelope.ops.push_back(
      core::RoutedOp{RequestId{1, 7}, core::Operation::stats()});
  return core::encode(envelope);
}

/// A v1 envelope (no v2 op kinds): the downgrade path clients re-encode on
/// after negotiation must stay fuzz-clean too.
Payload valid_envelope_v1() {
  core::OpEnvelope envelope;
  envelope.protocol = core::kOpProtocolMin;
  envelope.ops.push_back(core::RoutedOp{
      RequestId{2, 1}, core::Operation::put("k", 3, Bytes{1, 2})});
  envelope.ops.push_back(
      core::RoutedOp{RequestId{2, 2}, core::Operation::get("k")});
  return core::encode(envelope);
}

std::vector<CodecCase> all_codecs() {
  return {
      {"op_envelope", valid_envelope,
       [](const Bytes& b) { (void)core::decode_op_envelope(b); }},
      {"op_envelope_v1", valid_envelope_v1,
       [](const Bytes& b) { (void)core::decode_op_envelope(b); }},
      {"version_mismatch",
       []() {
         return core::encode(core::VersionMismatch{RequestId{9, 1}, 1, 2});
       },
       [](const Bytes& b) { (void)core::decode_version_mismatch(b); }},
      {"overload_reply",
       []() {
         return core::encode(core::OverloadReply{RequestId{9, 2}, 250});
       },
       [](const Bytes& b) { (void)core::decode_overload_reply(b); }},
      {"ops_inner",
       []() {
         core::OpsRequest ops;
         ops.ops.push_back(core::RoutedOp{
             RequestId{4, 5}, core::Operation::put("key", 2, Bytes{8})});
         ops.ops.push_back(
             core::RoutedOp{RequestId{4, 6}, core::Operation::del("gone", 3)});
         return core::encode_inner(ops);
       },
       [](const Bytes& b) { (void)core::decode_ops(b); }},
      {"handoff",
       []() {
         return core::encode_inner(
             core::HandoffRequest{store::Object{"k", 1, Bytes{9}}});
       },
       [](const Bytes& b) { (void)core::decode_handoff(b); }},
      {"op_reply_batch",
       []() {
         core::OpReplyBatch batch;
         batch.replica = NodeId(2);
         batch.slice = 3;
         batch.slice_count = 10;
         batch.replies.push_back(
             core::OpReply{RequestId{1, 1}, core::OpType::kPut,
                           core::OpStatus::kOk, store::Object{"key", 4, {}}});
         batch.replies.push_back(core::OpReply{
             RequestId{1, 2}, core::OpType::kGet, core::OpStatus::kOk,
             store::Object{"key", 9, Bytes{1, 2}}});
         batch.replies.push_back(core::OpReply{
             RequestId{1, 3}, core::OpType::kGet, core::OpStatus::kDeleted,
             store::Object{"gone", 11, {}}});
         batch.replies.push_back(core::OpReply{
             RequestId{1, 4}, core::OpType::kCompareAndPut,
             core::OpStatus::kCasFailed, store::Object{"key", 9, {}}});
         batch.replies.push_back(core::OpReply{
             RequestId{1, 5}, core::OpType::kStats, core::OpStatus::kOk,
             store::Object{Key{}, 0, Bytes{'m', 'x', '\n'}}});
         return core::encode(batch);
       },
       [](const Bytes& b) { (void)core::decode_op_reply_batch(b); }},
      {"replicate_push",
       []() {
         core::ReplicatePush push;
         push.objects.push_back(store::Object{"key", 1, Bytes{7}});
         push.objects.push_back(
             store::Object::make_tombstone("dead", 2, 777));
         return core::encode(push);
       },
       [](const Bytes& b) { (void)core::decode_replicate_push(b); }},
      {"slice_advert",
       []() {
         return core::encode(core::SliceAdvert{
             NodeId(1), 5, {10, 3}, Endpoint{0x7F000001, 7100, 99}});
       },
       [](const Bytes& b) { (void)core::decode_slice_advert(b); }},
      {"ae_digest",
       []() {
         return core::encode(
             core::AeDigest{false, {{"a", 1}, {"b", 2}, {"c", 3}}});
       },
       [](const Bytes& b) { (void)core::decode_ae_digest(b); }},
      {"ae_pull",
       []() { return core::encode(core::AePull{{{"a", 1}}}); },
       [](const Bytes& b) { (void)core::decode_ae_pull(b); }},
      // Summary-protocol frames: mutations hit the bucket_count field, so
      // the decoder's allocation guard (kMaxSummaryBuckets, ids < count) is
      // what stands between a flipped bit and a giant allocation.
      {"ae_summary",
       []() {
         core::AeSummary summary;
         summary.bucket_count = 16;
         summary.entry_count = 42;
         summary.fingerprints.assign(16, 0x0123456789ABCDEFULL);
         return core::encode(summary);
       },
       [](const Bytes& b) { (void)core::decode_ae_summary(b); }},
      {"ae_bucket_digest",
       []() {
         core::AeBucketDigest digest;
         digest.is_reply = true;
         digest.bucket_count = 16;
         digest.buckets = {1, 5, 9};
         digest.entries = {{"a", 1}, {"b", 2}};
         return core::encode(digest);
       },
       [](const Bytes& b) { (void)core::decode_ae_bucket_digest(b); }},
      {"ae_push",
       []() {
         return core::encode(core::AePush{
             {store::Object{"k", 1, Bytes{1, 2, 3}},
              store::Object::make_tombstone("dead", 4, 99)}});
       },
       [](const Bytes& b) { (void)core::decode_ae_push(b); }},
      {"st_request",
       []() { return core::encode(core::StRequest{7, {"cursor", 3}}); },
       [](const Bytes& b) { (void)core::decode_st_request(b); }},
      {"st_reply",
       []() {
         return core::encode(core::StReply{
             7, true, false, {store::Object{"k", 1, Bytes{5}}}});
       },
       [](const Bytes& b) { (void)core::decode_st_reply(b); }},
      // A slice advert whose endpoint gossips a TCP stream port: the tag-2
      // endpoint layout crossing a real message codec.
      {"slice_advert_streamed",
       []() {
         return core::encode(core::SliceAdvert{
             NodeId(1), 5, {10, 3}, Endpoint{0x7F000001, 7100, 99, 7200}});
       },
       [](const Bytes& b) { (void)core::decode_slice_advert(b); }},
      // The stream framing layer: feed() must absorb any byte sequence
      // without crashing — a malformed header poisons the decoder, a
      // truncated one just waits for more bytes.
      {"stream_frame",
       []() {
         net::Message msg;
         msg.src = NodeId(3);
         msg.dst = NodeId(4);
         msg.type = 0x0301;
         msg.payload = Payload(Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9});
         return net::encode_stream_frame(msg);
       },
       [](const Bytes& b) {
         net::StreamFrameDecoder decoder;
         decoder.feed(ByteView(b.data(), b.size()));
         while (decoder.poll().has_value()) {
         }
       }},
  };
}

class CodecFuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecFuzzTest, EveryTruncationIsHandled) {
  const auto codec = all_codecs()[GetParam()];
  // Mutation needs a private mutable copy of the immutable encoding.
  const Bytes valid = codec.make_valid().to_bytes();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
    ASSERT_NO_THROW(codec.decode(truncated))
        << codec.name << " crashed at truncation length " << len;
  }
}

TEST_P(CodecFuzzTest, RandomMutationsAreHandled) {
  const auto codec = all_codecs()[GetParam()];
  // Mutation needs a private mutable copy of the immutable encoding.
  const Bytes valid = codec.make_valid().to_bytes();
  Rng rng(0xF022 + GetParam());
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = valid;
    // 1-4 byte flips anywhere in the message (length prefixes included).
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    ASSERT_NO_THROW(codec.decode(mutated))
        << codec.name << " crashed on mutation round " << round;
  }
}

TEST_P(CodecFuzzTest, RandomGarbageIsHandled) {
  const auto codec = all_codecs()[GetParam()];
  Rng rng(0xBAD + GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes garbage(rng.next_below(256));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    ASSERT_NO_THROW(codec.decode(garbage))
        << codec.name << " crashed on garbage round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzzTest,
                         ::testing::Range<std::size_t>(0, 16),
                         [](const auto& info) {
                           return std::string(all_codecs()[info.param].name);
                         });

TEST(CodecRoundTrip, CurrentEnvelopeCarriesCasStatsAndTtl) {
  const auto decoded = core::decode_op_envelope(valid_envelope());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, core::kOpProtocolVersion);
  ASSERT_EQ(decoded->ops.size(), 7u);
  EXPECT_EQ(decoded->ops[0].op.ttl_ms, 0u);
  EXPECT_EQ(decoded->ops[1].op.ttl_ms, 30'000u);
  const core::Operation& cas = decoded->ops[5].op;
  EXPECT_EQ(cas.type, core::OpType::kCompareAndPut);
  EXPECT_EQ(cas.key, "guarded-key");
  EXPECT_EQ(cas.expected, 7u);
  EXPECT_EQ(cas.version, 12u);
  EXPECT_EQ(cas.value.size(), 2u);
  EXPECT_EQ(decoded->ops[6].op.type, core::OpType::kStats);
}

TEST(CodecRoundTrip, V1EnvelopeStillDecodes) {
  const auto decoded = core::decode_op_envelope(valid_envelope_v1());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, core::kOpProtocolMin);
  EXPECT_EQ(decoded->ops.size(), 2u);
}

TEST(CodecRoundTrip, VersionMismatch) {
  const core::VersionMismatch msg{RequestId{0xC11E, 42}, 2, 1};
  const auto decoded = core::decode_version_mismatch(core::encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rid.client, msg.rid.client);
  EXPECT_EQ(decoded->rid.seq, msg.rid.seq);
  EXPECT_EQ(decoded->got, 2);
  EXPECT_EQ(decoded->supported, 1);
}

TEST(CodecRoundTrip, OverloadReply) {
  const core::OverloadReply msg{RequestId{0x10AD, 77}, 1200};
  const auto decoded = core::decode_overload_reply(core::encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rid.client, msg.rid.client);
  EXPECT_EQ(decoded->rid.seq, msg.rid.seq);
  EXPECT_EQ(decoded->retry_after_ms, 1200u);
}

TEST(CodecRoundTrip, OverloadReplyRejectsTrailingBytes) {
  // A frame longer than the fixed layout is malformed, not "v-next with
  // extra fields": decode must refuse it rather than silently truncate.
  Bytes padded = core::encode(core::OverloadReply{RequestId{1, 1}, 50})
                     .to_bytes();
  padded.push_back(0xEE);
  EXPECT_FALSE(core::decode_overload_reply(padded).has_value());
}

TEST(CodecRoundTrip, MinProtocolForOpTypes) {
  EXPECT_EQ(core::min_protocol_for(core::OpType::kPut), 1);
  EXPECT_EQ(core::min_protocol_for(core::OpType::kGet), 1);
  EXPECT_EQ(core::min_protocol_for(core::OpType::kDelete), 1);
  EXPECT_EQ(core::min_protocol_for(core::OpType::kCompareAndPut), 2);
  EXPECT_EQ(core::min_protocol_for(core::OpType::kStats), 2);
  // Per-operation refinement: only a put that actually carries a TTL
  // needs v3 — plain puts stay expressible all the way down to v1.
  EXPECT_EQ(core::min_protocol_for(core::Operation::put("k", 1, Bytes{1})),
            1);
  EXPECT_EQ(core::min_protocol_for(
                core::Operation::put("k", 1, Bytes{1}, /*ttl_ms=*/500)),
            3);
}

TEST(CodecRoundTrip, V3EnvelopeCarriesTtl) {
  core::OpEnvelope envelope;
  envelope.ops.push_back(core::RoutedOp{
      RequestId{3, 1},
      core::Operation::put("cached", 5, Bytes{1, 2}, /*ttl_ms=*/45'000)});
  const auto decoded = core::decode_op_envelope(core::encode(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, core::kOpProtocolVersion);
  ASSERT_EQ(decoded->ops.size(), 1u);
  EXPECT_EQ(decoded->ops[0].op.ttl_ms, 45'000u);
  EXPECT_EQ(decoded->ops[0].op.value, Bytes({1, 2}));
}

TEST(CodecRoundTrip, AeSummaryAndBucketDigest) {
  core::AeSummary summary;
  summary.bucket_count = 32;
  summary.entry_count = 100;
  summary.fingerprints.assign(32, 7);
  const auto sum = core::decode_ae_summary(core::encode(summary));
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->bucket_count, 32u);
  EXPECT_EQ(sum->entry_count, 100u);
  EXPECT_EQ(sum->fingerprints, summary.fingerprints);

  core::AeBucketDigest digest;
  digest.is_reply = true;
  digest.bucket_count = 32;
  digest.buckets = {3, 17};
  digest.entries = {{"x", 9}};
  const auto dig = core::decode_ae_bucket_digest(core::encode(digest));
  ASSERT_TRUE(dig.has_value());
  EXPECT_TRUE(dig->is_reply);
  EXPECT_EQ(dig->buckets, digest.buckets);
  EXPECT_EQ(dig->entries, digest.entries);
}

TEST(CodecRoundTrip, AeSummaryRejectsAbsurdBucketCounts) {
  // A flipped bucket_count must be refused before any allocation sized by
  // it: receivers build bucket_count-long arrays from this field.
  core::AeSummary summary;
  summary.bucket_count = 16;
  summary.entry_count = 1;
  summary.fingerprints.assign(16, 1);
  Bytes bytes = core::encode(summary).to_bytes();
  bytes[0] = 0xFF;  // little-endian low byte of bucket_count
  bytes[1] = 0xFF;
  bytes[2] = 0xFF;
  bytes[3] = 0xFF;
  EXPECT_FALSE(core::decode_ae_summary(bytes).has_value());

  core::AeBucketDigest digest;
  digest.bucket_count = 16;
  digest.buckets = {15};
  const Bytes dig_bytes = core::encode(digest).to_bytes();
  // Layout: is_reply u8 | bucket_count u32 | vec len u32 | bucket ids...
  Bytes absurd_count = dig_bytes;
  absurd_count[1] = 0xFF;
  absurd_count[2] = 0xFF;
  absurd_count[3] = 0xFF;
  absurd_count[4] = 0xFF;
  EXPECT_FALSE(core::decode_ae_bucket_digest(absurd_count).has_value());
  // A bucket id >= bucket_count indexes out of the receiver's arrays.
  Bytes out_of_range = dig_bytes;
  out_of_range[9] = 0xFF;  // id 15 -> 255, beyond the 16-bucket layout
  EXPECT_FALSE(core::decode_ae_bucket_digest(out_of_range).has_value());
}

TEST(CodecFuzz, PssDescriptorTruncations) {
  // The endpoint-less, UDP-only, and stream-port-carrying layouts must all
  // reject every proper prefix.
  const std::vector<pss::NodeDescriptor> variants{
      {NodeId(5), 9, std::nullopt},
      {NodeId(5), 9, Endpoint{0x7F000001, 7105, 1234}},
      {NodeId(5), 9, Endpoint{0x7F000001, 7105, 1234, 9100}},
  };
  for (const auto& descriptor : variants) {
    Writer w;
    pss::encode(w, descriptor);
    const Bytes valid = w.take();
    for (std::size_t len = 0; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
      Reader r(truncated);
      ASSERT_NO_THROW((void)pss::decode_descriptor(r));
      EXPECT_FALSE(r.finish().ok());
    }
  }
}

// ---- endpoint codec back-compat --------------------------------------------
// The optional-endpoint layout grew a tag-2 variant carrying a stream port.
// Three properties keep old and new nodes interoperable: a stream-less node
// emits bytes identical to the pre-stream layout, those legacy bytes decode
// cleanly, and unknown tags are rejected rather than guessed at.

TEST(EndpointCodec, StreamlessEncodingIsByteIdenticalToLegacyLayout) {
  Writer w;
  encode_endpoint_opt(w, Endpoint{0x0A000001, 7100, 42});
  // The pre-stream layout, built by hand: tag 1, ip, port, stamp.
  Writer legacy;
  legacy.u8(1);
  legacy.u32(0x0A000001);
  legacy.u16(7100);
  legacy.u64(42);
  EXPECT_EQ(w.take(), legacy.take())
      << "a node without a stream port must gossip the exact legacy bytes";
}

TEST(EndpointCodec, DecodesLegacyTagOneBytes) {
  Writer legacy;
  legacy.u8(1);
  legacy.u32(0x0A000001);
  legacy.u16(7100);
  legacy.u64(42);
  const Bytes wire = legacy.take();

  Reader r(wire);
  const auto endpoint = decode_endpoint_opt(r);
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_TRUE(r.finish().ok());
  EXPECT_EQ(endpoint->ip, 0x0A000001u);
  EXPECT_EQ(endpoint->port, 7100);
  EXPECT_EQ(endpoint->stamp, 42u);
  EXPECT_EQ(endpoint->stream_port, 0) << "legacy descriptors are UDP-only";
}

TEST(EndpointCodec, RoundTripsStreamPortViaTagTwo) {
  const Endpoint original{0x7F000001, 7105, 1234, 9100};
  Writer w;
  encode_endpoint_opt(w, original);
  const Bytes wire = w.take();
  EXPECT_EQ(wire[0], 2) << "a stream port selects the tag-2 layout";

  Reader r(wire);
  const auto decoded = decode_endpoint_opt(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.finish().ok());
  EXPECT_EQ(*decoded, original);
}

TEST(EndpointCodec, RejectsUnknownTag) {
  Writer w;
  encode_endpoint_opt(w, Endpoint{0x7F000001, 7105, 1234, 9100});
  Bytes wire = w.take();
  wire[0] = 3;  // a tag no encoder emits
  Reader r(wire);
  EXPECT_FALSE(decode_endpoint_opt(r).has_value());
  EXPECT_FALSE(r.ok()) << "an unknown tag is malformed input, not v-next";
}

TEST(EndpointCodec, BothLayoutsRejectEveryTruncation) {
  const std::vector<Endpoint> variants{
      Endpoint{0x0A000001, 7100, 42},
      Endpoint{0x0A000001, 7100, 42, 9100},
  };
  for (const Endpoint& endpoint : variants) {
    Writer w;
    encode_endpoint_opt(w, endpoint);
    const Bytes valid = w.take();
    for (std::size_t len = 1; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
      Reader r(truncated);
      (void)decode_endpoint_opt(r);
      EXPECT_FALSE(r.finish().ok())
          << "prefix of length " << len << " must fail the reader";
    }
  }
}

// ---- stream framing --------------------------------------------------------
// The parameterized sweep above already feeds the decoder truncations,
// mutations and garbage in one window; these pin down the framing-specific
// contracts the sweep cannot see.

TEST(StreamFrameFuzz, TruncationsNeverCompleteAFrame) {
  net::Message msg;
  msg.src = NodeId(3);
  msg.dst = NodeId(4);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes{10, 20, 30, 40});
  const Bytes valid = net::encode_stream_frame(msg).to_bytes();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    net::StreamFrameDecoder decoder;
    decoder.feed(ByteView(valid.data(), len));
    EXPECT_FALSE(decoder.poll().has_value())
        << "prefix of length " << len << " completed a frame";
    EXPECT_FALSE(decoder.failed())
        << "a truncated valid frame is pending, not malformed";
  }
}

TEST(StreamFrameFuzz, MutatedLengthFieldNeverCrashes) {
  net::Message msg;
  msg.src = NodeId(3);
  msg.dst = NodeId(4);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes{10, 20, 30, 40});
  const Bytes valid = net::encode_stream_frame(msg).to_bytes();
  const std::size_t len_off = net::kStreamHeaderSize - sizeof(std::uint32_t);

  Rng rng(0x57EA);
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = valid;
    const auto length = static_cast<std::uint32_t>(rng.next_u64());
    std::memcpy(mutated.data() + len_off, &length, sizeof length);
    net::StreamFrameDecoder decoder;
    decoder.feed(ByteView(mutated.data(), mutated.size()));
    while (decoder.poll().has_value()) {
    }
    if (length > net::kMaxStreamPayload) {
      EXPECT_TRUE(decoder.failed())
          << "length " << length << " must poison the decoder";
    }
  }
}

TEST(StreamFrameFuzz, OversizedDeclaredLengthIsRejected) {
  net::Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0302;
  msg.payload = Payload(Bytes{1});
  Bytes wire = net::encode_stream_frame(msg).to_bytes();
  const std::size_t len_off = net::kStreamHeaderSize - sizeof(std::uint32_t);
  const auto huge = static_cast<std::uint32_t>(net::kMaxStreamPayload + 1);
  std::memcpy(wire.data() + len_off, &huge, sizeof huge);

  net::StreamFrameDecoder decoder;
  decoder.feed(ByteView(wire.data(), wire.size()));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.poll().has_value());
}

TEST(StreamFrameFuzz, GarbageStreamsPoisonWithoutCrashing) {
  Rng rng(0xDF5F);
  for (int round = 0; round < 200; ++round) {
    net::StreamFrameDecoder decoder;
    // Feed garbage in several windows, as a socket would deliver it.
    const std::size_t windows = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < windows; ++i) {
      Bytes garbage(rng.next_below(256));
      for (auto& byte : garbage) {
        byte = static_cast<std::uint8_t>(rng.next_below(256));
      }
      decoder.feed(ByteView(garbage.data(), garbage.size()));
      while (decoder.poll().has_value()) {
      }
    }
  }
}

}  // namespace
}  // namespace dataflasks
