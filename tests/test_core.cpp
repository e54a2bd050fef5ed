// Core component tests: protocol message codecs, the intra-slice view and
// directory, anti-entropy repair and slice state transfer, each exercised
// in a minimal harness independent of the full node.
#include <gtest/gtest.h>

#include <memory>

#include "core/anti_entropy.hpp"
#include "core/intra_slice_view.hpp"
#include "core/messages.hpp"
#include "core/state_transfer.hpp"
#include "slicing/slice_map.hpp"
#include "store/memstore.hpp"
#include "test_util.hpp"

namespace dataflasks::core {
namespace {

using testing::SimBundle;

Bytes value_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---- message codecs ---------------------------------------------------------

TEST(Messages, OpEnvelopeRoundTrip) {
  OpEnvelope envelope;
  envelope.ops.push_back(RoutedOp{
      RequestId{1, 2}, Operation::put("key", 4, value_of("value"))});
  envelope.ops.push_back(RoutedOp{RequestId{1, 3}, Operation::get("k2")});
  envelope.ops.push_back(
      RoutedOp{RequestId{1, 4}, Operation::get("k3", Version{42})});
  envelope.ops.push_back(RoutedOp{RequestId{1, 5}, Operation::del("k4", 9)});

  const auto decoded = decode_op_envelope(encode(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, kOpProtocolVersion);
  ASSERT_EQ(decoded->ops.size(), 4u);
  EXPECT_EQ(decoded->ops[0].rid, (RequestId{1, 2}));
  EXPECT_EQ(decoded->ops[0].op.type, OpType::kPut);
  EXPECT_EQ(decoded->ops[0].op.key, "key");
  EXPECT_EQ(decoded->ops[0].op.version, Version{4});
  EXPECT_EQ(decoded->ops[0].op.value, value_of("value"));
  EXPECT_EQ(decoded->ops[1].op.type, OpType::kGet);
  EXPECT_FALSE(decoded->ops[1].op.version.has_value());
  EXPECT_EQ(decoded->ops[2].op.version, Version{42});
  EXPECT_EQ(decoded->ops[3].op.type, OpType::kDelete);
  EXPECT_EQ(decoded->ops[3].op.version, Version{9});
}

TEST(Messages, OpEnvelopeRejectsWrongProtocolVersion) {
  OpEnvelope envelope;
  envelope.protocol = kOpProtocolVersion + 1;
  envelope.ops.push_back(RoutedOp{RequestId{1, 1}, Operation::get("k")});
  EXPECT_FALSE(decode_op_envelope(encode(envelope)).has_value());
}

TEST(Messages, OpsRequestRoundTripAndKindMismatch) {
  OpsRequest ops;
  ops.ops.push_back(RoutedOp{RequestId{7, 1},
                             Operation::put("a", 2, value_of("v"))});
  const Payload encoded = encode_inner(ops);
  EXPECT_EQ(peek_inner_kind(encoded), InnerKind::kOps);
  const auto decoded = decode_ops(encoded);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->ops.size(), 1u);
  EXPECT_EQ(decoded->ops[0].op.key, "a");

  const Payload handoff =
      encode_inner(HandoffRequest{store::Object{"k", 1, value_of("v")}});
  EXPECT_EQ(peek_inner_kind(handoff), InnerKind::kHandoff);
  EXPECT_FALSE(decode_ops(handoff).has_value());
  EXPECT_FALSE(decode_handoff(encoded).has_value());
  EXPECT_FALSE(peek_inner_kind(Bytes{}).has_value());
  EXPECT_FALSE(peek_inner_kind(Bytes{0x99}).has_value());
}

TEST(Messages, OpReplyBatchRoundTrip) {
  OpReplyBatch batch;
  batch.replica = NodeId(2);
  batch.slice = 3;
  batch.slice_count = 12;
  batch.replies.push_back(OpReply{RequestId{1, 1}, OpType::kPut,
                                  OpStatus::kOk, store::Object{"k", 4, {}}});
  batch.replies.push_back(
      OpReply{RequestId{1, 2}, OpType::kGet, OpStatus::kOk,
              store::Object{"k", 9, value_of("v")}});
  batch.replies.push_back(OpReply{RequestId{1, 3}, OpType::kGet,
                                  OpStatus::kDeleted,
                                  store::Object{"gone", 11, {}}});

  const auto decoded = decode_op_reply_batch(encode(batch));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->replica, NodeId(2));
  EXPECT_EQ(decoded->slice, 3u);
  EXPECT_EQ(decoded->slice_count, 12u);
  ASSERT_EQ(decoded->replies.size(), 3u);
  EXPECT_EQ(decoded->replies[0].status, OpStatus::kOk);
  EXPECT_EQ(decoded->replies[0].object.version, 4u);
  EXPECT_EQ(decoded->replies[1].object.value, value_of("v"));
  EXPECT_EQ(decoded->replies[2].status, OpStatus::kDeleted);
}

TEST(Messages, TruncatedOpReplyBatchRejected) {
  OpReplyBatch batch;
  batch.replica = NodeId(5);
  batch.slice = 1;
  batch.slice_count = 4;
  batch.replies.push_back(OpReply{RequestId{1, 1}, OpType::kPut,
                                  OpStatus::kOk, store::Object{"k", 4, {}}});
  const Payload encoded = encode(batch);
  ASSERT_TRUE(decode_op_reply_batch(encoded).has_value());
  // Every strict prefix, including one cut inside the slice count, fails.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(decode_op_reply_batch(encoded.subview(0, len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Messages, ReplicatePushCarriesBatchesAndTombstones) {
  ReplicatePush push;
  push.objects.push_back(store::Object{"k", 1, value_of("v")});
  push.objects.push_back(store::Object::make_tombstone("gone", 5, 1234));
  auto decoded_push = decode_replicate_push(encode(push));
  ASSERT_TRUE(decoded_push.has_value());
  ASSERT_EQ(decoded_push->objects.size(), 2u);
  EXPECT_EQ(decoded_push->objects[0], push.objects[0]);
  EXPECT_TRUE(decoded_push->objects[1].tombstone);
  EXPECT_EQ(decoded_push->objects[1].deleted_at, 1234);
}

TEST(Messages, AdvertAndAeRoundTrip) {
  const SliceAdvert advert{NodeId(1), 5, {10, 3}, std::nullopt};
  auto decoded = decode_slice_advert(encode(advert));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->slice, 5u);
  EXPECT_EQ(decoded->config.slice_count, 10u);
  EXPECT_FALSE(decoded->endpoint.has_value());

  const SliceAdvert with_endpoint{NodeId(2), 1, {4, 9},
                                  Endpoint{0x7F000001, 7100, 42}};
  auto decoded_ep = decode_slice_advert(encode(with_endpoint));
  ASSERT_TRUE(decoded_ep.has_value());
  ASSERT_TRUE(decoded_ep->endpoint.has_value());
  EXPECT_EQ(decoded_ep->endpoint->ip, 0x7F000001u);
  EXPECT_EQ(decoded_ep->endpoint->port, 7100u);
  EXPECT_EQ(decoded_ep->endpoint->stamp, 42u);

  const AeDigest digest{true, {{"a", 1}, {"b", 2}}};
  auto decoded_digest = decode_ae_digest(encode(digest));
  ASSERT_TRUE(decoded_digest.has_value());
  EXPECT_TRUE(decoded_digest->is_reply);
  EXPECT_EQ(decoded_digest->entries.size(), 2u);

  const AePush push{{store::Object{"k", 1, value_of("v")}}};
  auto decoded_push = decode_ae_push(encode(push));
  ASSERT_TRUE(decoded_push.has_value());
  ASSERT_EQ(decoded_push->objects.size(), 1u);
}

TEST(Messages, StateTransferRoundTrip) {
  const StRequest request{7, {"cursor_key", 3}};
  auto decoded_req = decode_st_request(encode(request));
  ASSERT_TRUE(decoded_req.has_value());
  EXPECT_EQ(decoded_req->slice, 7u);
  EXPECT_EQ(decoded_req->cursor.key, "cursor_key");

  const StReply reply{7, true, false, {store::Object{"k", 1, value_of("v")}}};
  auto decoded_reply = decode_st_reply(encode(reply));
  ASSERT_TRUE(decoded_reply.has_value());
  EXPECT_TRUE(decoded_reply->done);
  EXPECT_FALSE(decoded_reply->continues);

  const StReply burst_page{7, false, true, {}};
  auto decoded_page = decode_st_reply(encode(burst_page));
  ASSERT_TRUE(decoded_page.has_value());
  EXPECT_FALSE(decoded_page->done);
  EXPECT_TRUE(decoded_page->continues);
}

TEST(Messages, MalformedPayloadsReturnNullopt) {
  const Bytes junk{0x01, 0x02, 0x03};
  EXPECT_FALSE(decode_op_envelope(junk).has_value());
  EXPECT_FALSE(decode_ops(junk).has_value());
  EXPECT_FALSE(decode_op_reply_batch(junk).has_value());
  EXPECT_FALSE(decode_slice_advert(junk).has_value());
  EXPECT_FALSE(decode_ae_digest(junk).has_value());
  EXPECT_FALSE(decode_st_reply(junk).has_value());
}

TEST(Messages, CategoryAssignment) {
  EXPECT_EQ(net::category_of(kOpEnvelope), net::MsgCategory::kRequest);
  EXPECT_EQ(net::category_of(kOpReplyBatch), net::MsgCategory::kRequest);
  EXPECT_EQ(net::category_of(kReplicatePush), net::MsgCategory::kRequest);
  EXPECT_EQ(net::category_of(kSliceAdvert), net::MsgCategory::kSlicing);
  EXPECT_EQ(net::category_of(kAeDigest), net::MsgCategory::kAntiEntropy);
  EXPECT_EQ(net::category_of(kStRequest), net::MsgCategory::kAntiEntropy);
}

// ---- IntraSliceView ------------------------------------------------------------

TEST(IntraSliceViewTest, TracksSameSliceMembersOnly) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  view.observe(NodeId(1), 5, /*my_slice=*/5);
  view.observe(NodeId(2), 6, /*my_slice=*/5);
  EXPECT_EQ(view.size(), 1u);
  const auto peers = view.all_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers.front(), NodeId(1));
}

TEST(IntraSliceViewTest, DirectoryRemembersOtherSlices) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  view.observe(NodeId(2), 6, 5);
  view.observe(NodeId(3), 7, 5);
  EXPECT_EQ(view.directory_lookup(6), NodeId(2));
  EXPECT_EQ(view.directory_lookup(7), NodeId(3));
  EXPECT_FALSE(view.directory_lookup(9).has_value());
}

TEST(IntraSliceViewTest, NodeMovingSlicesMigratesStructures) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  view.observe(NodeId(1), 5, 5);  // slice-mate
  EXPECT_EQ(view.size(), 1u);
  view.observe(NodeId(1), 6, 5);  // moved away
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.directory_lookup(6), NodeId(1));
  view.observe(NodeId(1), 5, 5);  // came back
  EXPECT_EQ(view.size(), 1u);
  EXPECT_FALSE(view.directory_lookup(6).has_value());
}

TEST(IntraSliceViewTest, EntriesExpireAfterMaxAge) {
  IntraSliceViewOptions opts;
  opts.max_entry_age = 2;
  IntraSliceView view(NodeId(0), opts, Rng(1));
  view.observe(NodeId(1), 5, 5);
  view.tick();
  view.tick();
  EXPECT_EQ(view.size(), 1u);
  view.tick();  // age 3 > 2: expired
  EXPECT_EQ(view.size(), 0u);
}

TEST(IntraSliceViewTest, RefreshResetsAge) {
  IntraSliceViewOptions opts;
  opts.max_entry_age = 2;
  IntraSliceView view(NodeId(0), opts, Rng(1));
  view.observe(NodeId(1), 5, 5);
  view.tick();
  view.tick();
  view.observe(NodeId(1), 5, 5);  // refresh
  view.tick();
  view.tick();
  EXPECT_EQ(view.size(), 1u);
}

TEST(IntraSliceViewTest, CapacityBoundEvictsOldest) {
  IntraSliceViewOptions opts;
  opts.capacity = 3;
  IntraSliceView view(NodeId(0), opts, Rng(1));
  view.observe(NodeId(1), 5, 5);
  view.tick();  // node 1 now oldest
  view.observe(NodeId(2), 5, 5);
  view.observe(NodeId(3), 5, 5);
  view.observe(NodeId(4), 5, 5);  // evicts node 1
  EXPECT_EQ(view.size(), 3u);
  const auto peers = view.all_peers();
  EXPECT_EQ(std::count(peers.begin(), peers.end(), NodeId(1)), 0);
}

TEST(IntraSliceViewTest, ResetClearsMembersKeepsDirectory) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  view.observe(NodeId(1), 5, 5);
  view.observe(NodeId(2), 6, 5);
  view.reset_slice_entries();
  EXPECT_EQ(view.size(), 0u);
  EXPECT_TRUE(view.directory_lookup(6).has_value());
}

TEST(IntraSliceViewTest, NeverContainsSelf) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  view.observe(NodeId(0), 5, 5);
  EXPECT_EQ(view.size(), 0u);
}

TEST(IntraSliceViewTest, PeersSamplesDistinct) {
  IntraSliceView view(NodeId(0), {}, Rng(1));
  for (int i = 1; i <= 10; ++i) view.observe(NodeId(i), 5, 5);
  const auto sample = view.peers(5);
  ASSERT_EQ(sample.size(), 5u);
  std::set<std::uint64_t> unique;
  for (const NodeId p : sample) unique.insert(p.value);
  EXPECT_EQ(unique.size(), 5u);
}

// ---- AntiEntropy ------------------------------------------------------------------

/// Two stores joined by anti-entropy over the simulated transport.
struct AePair {
  explicit AePair(SimBundle& bundle, SliceId slice = 0,
                  std::uint32_t slice_count = 1, AntiEntropyOptions opts = {})
      : slice_count_(slice_count) {
    auto key_slice = [slice_count](const Key& key) {
      return slicing::key_to_slice(key, slice_count);
    };
    a = std::make_unique<AntiEntropy>(
        NodeId(0), *bundle.transport, store_a, Rng(1), opts,
        [slice]() { return slice; }, key_slice,
        [](std::size_t) { return std::vector<NodeId>{NodeId(1)}; },
        metrics_a);
    b = std::make_unique<AntiEntropy>(
        NodeId(1), *bundle.transport, store_b, Rng(2), opts,
        [slice]() { return slice; }, key_slice,
        [](std::size_t) { return std::vector<NodeId>{NodeId(0)}; },
        metrics_b);
    bundle.transport->register_handler(
        NodeId(0), [this](const net::Message& msg) { a->handle(msg); });
    bundle.transport->register_handler(
        NodeId(1), [this](const net::Message& msg) { b->handle(msg); });
  }

  std::uint32_t slice_count_;
  store::MemStore store_a, store_b;
  MetricsRegistry metrics_a, metrics_b;
  std::unique_ptr<AntiEntropy> a, b;
};

TEST(AntiEntropyTest, RepairsMissingObjectsBothWays) {
  SimBundle bundle(61);
  AePair pair(bundle);
  ASSERT_TRUE(pair.store_a.put({"only_a", 1, value_of("va")}).ok());
  ASSERT_TRUE(pair.store_b.put({"only_b", 1, value_of("vb")}).ok());

  pair.a->tick();
  bundle.run_for(5 * kSeconds);

  EXPECT_TRUE(pair.store_a.contains("only_b", 1));
  EXPECT_TRUE(pair.store_b.contains("only_a", 1));
  EXPECT_EQ(pair.store_b.get("only_a", 1).value().value, value_of("va"));
}

TEST(AntiEntropyTest, RepairsMissingVersionsOfSameKey) {
  SimBundle bundle(62);
  AePair pair(bundle);
  ASSERT_TRUE(pair.store_a.put({"k", 1, value_of("v1")}).ok());
  ASSERT_TRUE(pair.store_a.put({"k", 2, value_of("v2")}).ok());
  ASSERT_TRUE(pair.store_b.put({"k", 1, value_of("v1")}).ok());

  pair.b->tick();
  bundle.run_for(5 * kSeconds);
  EXPECT_TRUE(pair.store_b.contains("k", 2));
}

TEST(AntiEntropyTest, IgnoresObjectsOutsideOwnSlice) {
  SimBundle bundle(63);
  // Both nodes in slice 0 of a 4-slice config: only slice-0 keys replicate.
  AePair pair(bundle, 0, 4);
  Key in_slice, out_slice;
  for (int i = 0; i < 100 && (in_slice.empty() || out_slice.empty()); ++i) {
    const Key key = "key" + std::to_string(i);
    if (slicing::key_to_slice(key, 4) == 0) {
      if (in_slice.empty()) in_slice = key;
    } else if (out_slice.empty()) {
      out_slice = key;
    }
  }
  ASSERT_TRUE(pair.store_a.put({in_slice, 1, value_of("in")}).ok());
  ASSERT_TRUE(pair.store_a.put({out_slice, 1, value_of("out")}).ok());

  pair.a->tick();
  pair.b->tick();
  bundle.run_for(5 * kSeconds);

  EXPECT_TRUE(pair.store_b.contains(in_slice, 1));
  EXPECT_FALSE(pair.store_b.contains(out_slice, 1));
}

TEST(AntiEntropyTest, ConvergesIdenticalStores) {
  SimBundle bundle(64);
  AntiEntropyOptions opts;
  opts.digest_cap = 16;  // force multi-round convergence
  opts.push_cap = 8;
  AePair pair(bundle, 0, 1, opts);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(pair.store_a
                    .put({"a" + std::to_string(i), 1, value_of("x")})
                    .ok());
    ASSERT_TRUE(pair.store_b
                    .put({"b" + std::to_string(i), 1, value_of("y")})
                    .ok());
  }
  for (int round = 0; round < 40; ++round) {
    pair.a->tick();
    pair.b->tick();
    bundle.run_for(2 * kSeconds);
  }
  EXPECT_EQ(pair.store_a.object_count(), 120u);
  EXPECT_EQ(pair.store_b.object_count(), 120u);
}

TEST(AntiEntropyTest, NoPartnersMeansNoTraffic) {
  SimBundle bundle(65);
  store::MemStore store;
  MetricsRegistry metrics;
  AntiEntropy ae(
      NodeId(0), *bundle.transport, store, Rng(1), {},
      []() { return SliceId{0}; },
      [](const Key&) { return SliceId{0}; },
      [](std::size_t) { return std::vector<NodeId>{}; }, metrics);
  ae.tick();
  EXPECT_EQ(bundle.transport->total_sent(), 0u);
}

// ---- StateTransfer -----------------------------------------------------------------

struct StPair {
  StPair(SimBundle& bundle, SliceId slice, std::uint32_t slice_count,
         StateTransferOptions opts = {}) {
    auto key_slice = [slice_count](const Key& key) {
      return slicing::key_to_slice(key, slice_count);
    };
    joiner = std::make_unique<StateTransfer>(
        NodeId(0), *bundle.transport, store_joiner, Rng(1), opts,
        [slice]() { return slice; }, key_slice,
        [](std::size_t) { return std::vector<NodeId>{NodeId(1)}; },
        metrics_joiner);
    donor = std::make_unique<StateTransfer>(
        NodeId(1), *bundle.transport, store_donor, Rng(2), opts,
        [slice]() { return slice; }, key_slice,
        [](std::size_t) { return std::vector<NodeId>{NodeId(0)}; },
        metrics_donor);
    bundle.transport->register_handler(
        NodeId(0), [this](const net::Message& msg) { joiner->handle(msg); });
    bundle.transport->register_handler(
        NodeId(1), [this](const net::Message& msg) { donor->handle(msg); });
  }

  store::MemStore store_joiner, store_donor;
  MetricsRegistry metrics_joiner, metrics_donor;
  std::unique_ptr<StateTransfer> joiner, donor;
};

TEST(StateTransferTest, PullsWholeSliceInPages) {
  SimBundle bundle(71);
  StateTransferOptions opts;
  opts.page_size = 10;
  StPair pair(bundle, 0, 1, opts);
  for (int i = 0; i < 45; ++i) {
    ASSERT_TRUE(
        pair.store_donor.put({"k" + std::to_string(i), 1, value_of("v")}).ok());
  }

  bool completed = false;
  pair.joiner->set_completion_listener([&](SliceId) { completed = true; });
  pair.joiner->begin();
  bundle.run_for(10 * kSeconds);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(pair.joiner->active());
  EXPECT_EQ(pair.store_joiner.object_count(), 45u);
  // Paging actually happened: ceil(45/10) + final short page request(s).
  EXPECT_GE(pair.metrics_donor.counter_value("st.pages_served"), 5u);
}

TEST(StateTransferTest, FiltersForeignSliceObjects) {
  SimBundle bundle(72);
  // Joiner in slice 0 of 4; donor holds a mix (e.g. it recently moved).
  StPair pair(bundle, 0, 4);
  int mine = 0;
  for (int i = 0; i < 40; ++i) {
    const Key key = "k" + std::to_string(i);
    ASSERT_TRUE(pair.store_donor.put({key, 1, value_of("v")}).ok());
    if (slicing::key_to_slice(key, 4) == 0) ++mine;
  }
  ASSERT_GT(mine, 0);

  pair.joiner->begin();
  bundle.run_for(10 * kSeconds);
  EXPECT_EQ(pair.store_joiner.object_count(),
            static_cast<std::size_t>(mine));
}

TEST(StateTransferTest, CompletionDropsForeignKeysFromJoiner) {
  SimBundle bundle(73);
  StPair pair(bundle, 0, 4);
  // The joiner still holds leftovers from its previous slice.
  Key foreign;
  for (int i = 0; i < 100 && foreign.empty(); ++i) {
    const Key key = "old" + std::to_string(i);
    if (slicing::key_to_slice(key, 4) != 0) foreign = key;
  }
  ASSERT_TRUE(pair.store_joiner.put({foreign, 1, value_of("stale")}).ok());

  pair.joiner->begin();
  bundle.run_for(10 * kSeconds);
  EXPECT_FALSE(pair.store_joiner.contains(foreign, 1));
}

TEST(StateTransferTest, LargeValuePagesAreChunkedUnderDatagramBudget) {
  SimBundle bundle(75);
  StateTransferOptions opts;
  opts.page_size = 64;
  StPair pair(bundle, 0, 1, opts);

  // One logical page of multi-kB values: 12 x 10 kB = ~120 kB, far over
  // the 48 kB per-datagram budget (and over the ~60 kB frame cap that
  // would silently drop the reply on real UDP, stalling the join forever).
  // The donor must byte-bound each reply and page through the rest.
  const Bytes big(10 * 1024, 0xAB);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(pair.store_donor.put({"big" + std::to_string(i), 1, big}).ok());
  }

  // Observe every StReply payload as it crosses the (simulated) wire.
  std::size_t replies = 0;
  std::size_t max_payload = 0;
  StateTransfer* joiner = pair.joiner.get();
  bundle.transport->register_handler(
      NodeId(0), [&, joiner](const net::Message& msg) {
        if (msg.type == kStReply) {
          ++replies;
          max_payload = std::max(max_payload, msg.payload.size());
        }
        joiner->handle(msg);
      });

  bool completed = false;
  pair.joiner->set_completion_listener([&](SliceId) { completed = true; });
  pair.joiner->begin();
  bundle.run_for(20 * kSeconds);

  EXPECT_TRUE(completed);
  EXPECT_EQ(pair.store_joiner.object_count(), 12u);
  EXPECT_GE(replies, 3u) << "the oversized page must split across replies";
  // Budget plus per-message framing slack: every datagram must fit a frame.
  EXPECT_LE(max_payload, kBatchBytesBudget + 1024);
  EXPECT_GE(pair.metrics_donor.counter_value("st.pages_served"), 3u);
}

TEST(StateTransferTest, DivergentSliceMapsCannotLivelockTheTransfer) {
  SimBundle bundle(76);
  StateTransferOptions opts;
  opts.page_size = 4;

  // The donor's slice map claims every key belongs to slice 0, so it keeps
  // serving keys the joiner (slicing by hash into 4) considers foreign.
  // Before the cursor fix the joiner re-requested the same all-foreign page
  // forever; now the cursor advances over every served object.
  store::MemStore store_joiner, store_donor;
  MetricsRegistry metrics_joiner, metrics_donor;
  const auto joiner_slice = [](const Key& key) {
    return slicing::key_to_slice(key, 4);
  };
  const auto donor_slice = [](const Key&) { return SliceId{0}; };

  StateTransfer joiner(
      NodeId(0), *bundle.transport, store_joiner, Rng(1), opts,
      []() { return SliceId{0}; }, joiner_slice,
      [](std::size_t) { return std::vector<NodeId>{NodeId(1)}; },
      metrics_joiner);
  StateTransfer donor(
      NodeId(1), *bundle.transport, store_donor, Rng(2), opts,
      []() { return SliceId{0}; }, donor_slice,
      [](std::size_t) { return std::vector<NodeId>{NodeId(0)}; },
      metrics_donor);
  bundle.transport->register_handler(
      NodeId(0), [&joiner](const net::Message& msg) { joiner.handle(msg); });
  bundle.transport->register_handler(
      NodeId(1), [&donor](const net::Message& msg) { donor.handle(msg); });

  // Keys named a* sort before z*, so the first pages are entirely foreign
  // to the joiner; its own keys come last.
  std::size_t foreign = 0, mine = 0;
  for (int i = 0; foreign < 8 && i < 1000; ++i) {
    const Key key = "a" + std::to_string(i);
    if (slicing::key_to_slice(key, 4) != 0) {
      ASSERT_TRUE(store_donor.put({key, 1, value_of("v")}).ok());
      ++foreign;
    }
  }
  for (int i = 0; mine < 3 && i < 1000; ++i) {
    const Key key = "z" + std::to_string(i);
    if (slicing::key_to_slice(key, 4) == 0) {
      ASSERT_TRUE(store_donor.put({key, 1, value_of("v")}).ok());
      ++mine;
    }
  }
  ASSERT_EQ(foreign, 8u);
  ASSERT_EQ(mine, 3u);

  bool completed = false;
  joiner.set_completion_listener([&](SliceId) { completed = true; });
  joiner.begin();
  for (int i = 0; i < 10 && !completed; ++i) {
    joiner.tick();
    bundle.run_for(kSeconds);
  }

  EXPECT_TRUE(completed) << "transfer livelocked on foreign-only pages";
  EXPECT_FALSE(joiner.active());
  EXPECT_EQ(store_joiner.object_count(), 3u);  // only its own keys stored
}

TEST(StateTransferTest, RetriesAfterStall) {
  SimBundle bundle(74);
  StateTransferOptions opts;
  opts.stall_ticks = 2;
  StPair pair(bundle, 0, 1, opts);
  ASSERT_TRUE(pair.store_donor.put({"k", 1, value_of("v")}).ok());

  // Drop everything initially: the first request is lost.
  bundle.model.set_node_up(NodeId(1), false);
  pair.joiner->begin();
  bundle.run_for(3 * kSeconds);
  EXPECT_TRUE(pair.joiner->active());

  // Donor comes back; stall detection must re-request.
  bundle.model.set_node_up(NodeId(1), true);
  for (int i = 0; i < 6; ++i) {
    pair.joiner->tick();
    bundle.run_for(kSeconds);
  }
  EXPECT_FALSE(pair.joiner->active());
  EXPECT_TRUE(pair.store_joiner.contains("k", 1));
}

}  // namespace
}  // namespace dataflasks::core
