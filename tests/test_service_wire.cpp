// Wire-protocol unit tests: frame encode/parse, payload round-trips,
// defensive decoding, and the canonical JobSpec encoding + cache key —
// including the worked example pinned in docs/SERVICE.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "service/job_spec.hpp"
#include "service/wire.hpp"

namespace qdc::service {
namespace {

TEST(ServiceWire, WriterReaderRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("hello");
  const std::vector<std::uint8_t> payload = w.take();

  WireReader r(payload);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ServiceWire, LittleEndianOnTheWire) {
  WireWriter w;
  w.u32(0x01020304u);
  const std::vector<std::uint8_t>& bytes = w.data();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(ServiceWire, ReaderThrowsOnTruncation) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  WireReader r(three);
  EXPECT_THROW(r.u32(), std::runtime_error);

  WireReader s(three);
  s.u16();
  EXPECT_THROW(s.u16(), std::runtime_error);
}

TEST(ServiceWire, ReaderThrowsOnOversizedStringLength) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  const std::vector<std::uint8_t> payload = w.take();
  WireReader r(payload);
  EXPECT_THROW(r.str(), std::runtime_error);
}

TEST(ServiceWire, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::PollRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  FrameHeader header;
  ASSERT_EQ(parse_frame_header(frame.data(), &header), ErrorCode::None);
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, MessageType::PollRequest);
  EXPECT_EQ(header.payload_size, payload.size());
}

TEST(ServiceWire, FrameHeaderRejectsEachRule) {
  const std::vector<std::uint8_t> good =
      encode_frame(MessageType::AdminRequest, {});
  FrameHeader header;

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(parse_frame_header(bad_magic.data(), &header),
            ErrorCode::BadMagic);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = kWireVersion + 1;
  EXPECT_EQ(parse_frame_header(bad_version.data(), &header),
            ErrorCode::UnsupportedVersion);

  std::vector<std::uint8_t> oversized = good;
  oversized[8] = 0xFF;
  oversized[9] = 0xFF;
  oversized[10] = 0xFF;
  oversized[11] = 0xFF;
  EXPECT_EQ(parse_frame_header(oversized.data(), &header),
            ErrorCode::OversizedFrame);
}

TEST(ServiceWire, RequestResponseClassification) {
  EXPECT_TRUE(is_request(MessageType::SubmitRequest));
  EXPECT_TRUE(is_request(MessageType::ShutdownRequest));
  EXPECT_FALSE(is_request(MessageType::SubmitResponse));
  EXPECT_FALSE(is_request(MessageType::ErrorResponse));
}

TEST(ServiceWire, TerminalStates) {
  EXPECT_FALSE(is_terminal(JobState::Queued));
  EXPECT_FALSE(is_terminal(JobState::Running));
  EXPECT_TRUE(is_terminal(JobState::Done));
  EXPECT_TRUE(is_terminal(JobState::Cancelled));
  EXPECT_TRUE(is_terminal(JobState::Expired));
  EXPECT_TRUE(is_terminal(JobState::Failed));
}

TEST(ServiceWire, JobStatusRoundTrip) {
  JobStatus status;
  status.job_id = 77;
  status.state = JobState::Failed;
  status.cached = true;
  status.error = ErrorCode::ExecutionFailed;
  status.error_message = "boom";
  status.wall_us = 123;
  status.compute_us = 45;
  status.result = {1, 2, 3, 4};

  const std::vector<std::uint8_t> bytes = status.encode();
  WireReader r(bytes);
  const JobStatus back = JobStatus::decode(r);
  EXPECT_EQ(back.job_id, 77u);
  EXPECT_EQ(back.state, JobState::Failed);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.error, ErrorCode::ExecutionFailed);
  EXPECT_EQ(back.error_message, "boom");
  EXPECT_EQ(back.wall_us, 123u);
  EXPECT_EQ(back.compute_us, 45u);
  EXPECT_EQ(back.result, (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(ServiceWire, JobStatusRejectsUnknownState) {
  JobStatus status;
  std::vector<std::uint8_t> payload = status.encode();
  payload[8] = 99;  // state byte follows the u64 job id
  WireReader r(payload);
  EXPECT_THROW(JobStatus::decode(r), std::runtime_error);
}

TEST(ServiceWire, ErrorBodyRoundTrip) {
  ErrorBody body;
  body.code = ErrorCode::QueueFull;
  body.message = "job queue is at capacity";
  const std::vector<std::uint8_t> bytes = body.encode();
  WireReader r(bytes);
  const ErrorBody back = ErrorBody::decode(r);
  EXPECT_EQ(back.code, ErrorCode::QueueFull);
  EXPECT_EQ(back.message, "job queue is at capacity");
}

TEST(ServiceWire, AdminStatsRoundTripAndForwardCompat) {
  // The wire order is append-only: these 18 counters lead the block, in
  // this order, forever.
  const char* const kWireOrder[] = {
      "queue_depth",          "queue_capacity",   "in_flight",
      "jobs_submitted",       "jobs_completed",   "jobs_cancelled",
      "jobs_expired",         "jobs_failed",      "cache_hits",
      "cache_misses",         "cache_evictions",  "cache_bytes",
      "cache_capacity_bytes", "cache_entries",    "total_wall_us",
      "total_compute_us",     "max_wall_us",      "max_compute_us"};
  ASSERT_GE(std::size(kAdminCounters), std::size(kWireOrder));
  for (std::size_t i = 0; i < std::size(kWireOrder); ++i) {
    EXPECT_STREQ(kAdminCounters[i].name, kWireOrder[i]);
  }

  // A distinct value per counter, so two swapped counters cannot pass.
  auto value_of = [](std::size_t i) {
    return 0x0101010101010101ULL * (i + 1) + i;
  };
  AdminStats stats;
  for (std::size_t i = 0; i < std::size(kAdminCounters); ++i) {
    stats.*kAdminCounters[i].member = value_of(i);
  }
  EXPECT_EQ(stats.queue_depth, value_of(0));
  EXPECT_EQ(stats.cache_capacity_bytes, value_of(12));
  EXPECT_EQ(stats.max_compute_us, value_of(17));

  // Counter i is the little-endian u64 at byte offset 8 * i.
  std::vector<std::uint8_t> payload = stats.encode();
  ASSERT_EQ(payload.size(), 8 * std::size(kAdminCounters));
  for (std::size_t i = 0; i < std::size(kAdminCounters); ++i) {
    WireReader at(payload.data() + 8 * i, 8);
    EXPECT_EQ(at.u64(), value_of(i)) << kAdminCounters[i].name;
  }

  // A future server may append counters; today's decoder must ignore
  // them (the protocol's forward-compat rule).
  WireWriter extra;
  extra.u64(0xFFFFFFFFFFFFFFFFULL);
  payload.insert(payload.end(), extra.data().begin(), extra.data().end());

  WireReader r(payload);
  const AdminStats back = AdminStats::decode(r);
  for (std::size_t i = 0; i < std::size(kAdminCounters); ++i) {
    EXPECT_EQ(back.*kAdminCounters[i].member, value_of(i))
        << kAdminCounters[i].name;
  }
}

TEST(ServiceSpec, CanonicalEncodingHasPinnedSize) {
  const JobSpec spec;
  EXPECT_EQ(spec.encode_canonical().size(), kJobSpecEncodedSize);
}

TEST(ServiceSpec, CanonicalRoundTrip) {
  JobSpec spec;
  spec.topology = TopologyKind::Gnm;
  spec.algorithm = AlgorithmKind::Mst;
  spec.nodes = 128;
  spec.edges = 300;
  spec.bandwidth = 6;
  spec.max_rounds = 5000;
  spec.topology_seed = 0x1234;
  spec.shared_seed = 0x5678;

  const std::vector<std::uint8_t> bytes = spec.encode_canonical();
  WireReader r(bytes);
  const JobSpec back = JobSpec::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, spec);
}

TEST(ServiceSpec, ValidateEnforcesCanonicalZeroes) {
  JobSpec spec;  // path topology
  spec.nodes = 8;
  EXPECT_TRUE(spec.validate().empty());

  spec.gamma = 1;  // unused by path: must be 0
  EXPECT_FALSE(spec.validate().empty());
  spec.gamma = 0;

  spec.arity = 2;  // unused by path: must be 0
  EXPECT_FALSE(spec.validate().empty());
}

TEST(ServiceSpec, ValidateEnforcesTopologyMinimums) {
  JobSpec spec;
  spec.topology = TopologyKind::Cycle;
  spec.nodes = 2;  // a cycle needs >= 3
  EXPECT_FALSE(spec.validate().empty());
  spec.nodes = 3;
  EXPECT_TRUE(spec.validate().empty());

  JobSpec gnm;
  gnm.topology = TopologyKind::Gnm;
  gnm.nodes = 10;
  gnm.edges = 5;  // below the n-1 connectivity floor
  EXPECT_FALSE(gnm.validate().empty());
  gnm.edges = 9;
  EXPECT_TRUE(gnm.validate().empty());

  JobSpec tree;
  tree.topology = TopologyKind::Tree;
  tree.nodes = 8;
  tree.arity = 0;  // a tree needs arity >= 1
  EXPECT_FALSE(tree.validate().empty());
  tree.arity = 1;  // arity 1 is the path 0-1-...-7
  EXPECT_TRUE(tree.validate().empty());

  JobSpec lb;
  lb.topology = TopologyKind::LbNetwork;
  lb.gamma = 1000;
  lb.length = 1025;  // million_lb: 1,026,033 nodes, 2,557,633 edges
  EXPECT_TRUE(lb.validate().empty());
  // The view builds only L = 2^k + 1 with k >= 1: length 4 would run
  // N(2, 5) under a second cache key, and length 2 could not run at all.
  lb.gamma = 2;
  for (const std::uint32_t length : {2u, 4u, 6u, 65536u}) {
    lb.length = length;
    EXPECT_FALSE(lb.validate().empty()) << "length=" << length;
  }
  lb.length = 3;
  EXPECT_TRUE(lb.validate().empty());
  lb.length = 5;
  EXPECT_TRUE(lb.validate().empty());
  // Within the gamma and length caps, but past the node or edge cap.
  lb.gamma = 4096;
  lb.length = 65536;  // would round up to N(4096, 65537): 268,505,103 nodes
  EXPECT_FALSE(lb.validate().empty());
  lb.length = 32769;  // 134,254,606 nodes
  EXPECT_FALSE(lb.validate().empty());
  lb.length = 257;  // 1,052,935 nodes, but 18,416,061 edges > 2^23
  EXPECT_FALSE(lb.validate().empty());
  lb.gamma = 2048;
  lb.length = 1025;  // 2,100,233 nodes > 2^21
  EXPECT_FALSE(lb.validate().empty());
  lb.gamma = 2040;  // 2,092,033 nodes
  EXPECT_TRUE(lb.validate().empty());
}

TEST(ServiceSpec, ValidateEnforcesMstBandwidthFloor) {
  JobSpec spec;
  spec.topology = TopologyKind::Path;
  spec.algorithm = AlgorithmKind::Mst;
  spec.nodes = 8;
  spec.bandwidth = 5;  // run_mst needs >= 6 fields per edge per round
  EXPECT_FALSE(spec.validate().empty());
  spec.bandwidth = 6;
  EXPECT_TRUE(spec.validate().empty());
}

TEST(ServiceSpec, CacheKeyIsInvariantToExecutionDetails) {
  JobSpec a;
  a.nodes = 64;
  const JobSpec b = a;
  EXPECT_EQ(cache_key(a), cache_key(b));

  // Any result-determining field changes the key.
  JobSpec c = a;
  c.shared_seed ^= 1;
  EXPECT_NE(cache_key(a), cache_key(c));
  JobSpec d = a;
  d.bandwidth += 1;
  EXPECT_NE(cache_key(a), cache_key(d));
}

// The worked example in docs/SERVICE.md: path topology, census
// algorithm, 64 nodes, everything else at its canonical default. The
// pinned constant keeps the document, the encoder, and the FNV-1a +
// splitmix64 key derivation in lockstep — if any of the three drifts,
// this test names the exact contract that broke.
TEST(ServiceSpec, CacheKeyWorkedExampleFromServiceDoc) {
  JobSpec spec;
  spec.topology = TopologyKind::Path;
  spec.algorithm = AlgorithmKind::Census;
  spec.nodes = 64;
  EXPECT_EQ(cache_key(spec), 0x4375090169cdfc93ULL);
}

TEST(ServiceSpec, NameRoundTrips) {
  for (TopologyKind kind :
       {TopologyKind::Path, TopologyKind::Cycle, TopologyKind::Tree,
        TopologyKind::Gnm, TopologyKind::LbNetwork}) {
    TopologyKind back{};
    ASSERT_TRUE(parse_topology_kind(topology_kind_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  for (AlgorithmKind kind : {AlgorithmKind::Census, AlgorithmKind::Leader,
                             AlgorithmKind::Mst}) {
    AlgorithmKind back{};
    ASSERT_TRUE(parse_algorithm_kind(algorithm_kind_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  TopologyKind out{};
  EXPECT_FALSE(parse_topology_kind("torus", &out));
}

}  // namespace
}  // namespace qdc::service
