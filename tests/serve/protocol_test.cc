// Wire-protocol unit tests: frame round trips over a real pipe (short reads
// included), request/response encode-parse inverses, error mapping, and the
// malformed-input rejections a hostile client could provoke.

#include "serve/protocol.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace entmatcher {
namespace {

class PipeTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::pipe(fds_), 0); }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseWriteEnd() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(PipeTest, FrameRoundTrip) {
  const std::string payload = "match CSLS";
  ASSERT_TRUE(WriteFrame(write_fd(), payload).ok());
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST_F(PipeTest, EmptyFrameRoundTrip) {
  ASSERT_TRUE(WriteFrame(write_fd(), "").ok());
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(PipeTest, BinaryPayloadSurvives) {
  std::string payload("\x00\x01\xff\x7f ok\n\x00", 9);
  ASSERT_TRUE(WriteFrame(write_fd(), payload).ok());
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST_F(PipeTest, LargeFrameCrossesPipeBuffer) {
  // > 64 KiB forces several write()/read() calls, exercising the
  // short-read/short-write loops.
  const std::string payload(300000, 'x');
  std::thread writer(
      [this, &payload] { ASSERT_TRUE(WriteFrame(write_fd(), payload).ok()); });
  Result<std::string> read = ReadFrame(read_fd());
  writer.join();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), payload.size());
  EXPECT_EQ(*read, payload);
}

TEST_F(PipeTest, CleanEofIsNotFound) {
  CloseWriteEnd();
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(PipeTest, EofMidFrameIsIoError) {
  const char truncated[] = {16, 0, 0, 0, 'a', 'b'};  // promises 16, sends 2
  ASSERT_EQ(::write(write_fd(), truncated, sizeof(truncated)),
            static_cast<ssize_t>(sizeof(truncated)));
  CloseWriteEnd();
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(PipeTest, OversizedLengthPrefixRejected) {
  const uint32_t huge = static_cast<uint32_t>(kMaxFrameBytes + 1);
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_EQ(::write(write_fd(), prefix, 4), 4);
  Result<std::string> read = ReadFrame(read_fd());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolRequest, MatchRoundTrip) {
  WireRequest request;
  request.verb = WireRequest::Verb::kMatch;
  request.algorithm = AlgorithmPreset::kCsls;
  request.timeout_micros = 2500;
  Result<WireRequest> parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, WireRequest::Verb::kMatch);
  EXPECT_EQ(parsed->algorithm, AlgorithmPreset::kCsls);
  EXPECT_EQ(parsed->timeout_micros, 2500u);
}

TEST(ProtocolRequest, TopKRoundTrip) {
  WireRequest request;
  request.verb = WireRequest::Verb::kTopK;
  request.algorithm = AlgorithmPreset::kSinkhorn;
  request.k = 7;
  Result<WireRequest> parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, WireRequest::Verb::kTopK);
  EXPECT_EQ(parsed->algorithm, AlgorithmPreset::kSinkhorn);
  EXPECT_EQ(parsed->k, 7u);
  EXPECT_EQ(parsed->timeout_micros, 0u);
}

TEST(ProtocolRequest, StatsHealthAndShutdownRoundTrip) {
  for (const auto verb :
       {WireRequest::Verb::kStats, WireRequest::Verb::kHealth,
        WireRequest::Verb::kShutdown}) {
    WireRequest request;
    request.verb = verb;
    Result<WireRequest> parsed = ParseRequest(EncodeRequest(request));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->verb, verb);
  }
}

TEST(ProtocolRequest, EveryServablePresetParses) {
  for (const char* name :
       {"DInf", "CSLS", "RInf", "RInf-wr", "RInf-pb", "Sink.", "Hun.",
        "SMat"}) {
    SCOPED_TRACE(name);
    Result<AlgorithmPreset> preset = ParseServableAlgorithm(name);
    EXPECT_TRUE(preset.ok()) << preset.status().ToString();
  }
}

TEST(ProtocolRequest, RlAndUnknownAlgorithmsRejected) {
  for (const char* name : {"RL", "nope", ""}) {
    SCOPED_TRACE(name);
    Result<AlgorithmPreset> preset = ParseServableAlgorithm(name);
    ASSERT_FALSE(preset.ok());
    EXPECT_EQ(preset.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolRequest, MalformedLinesRejected) {
  for (const char* line :
       {"", "bogus", "match", "match RL", "topk CSLS", "topk CSLS zero",
        "match CSLS timeout_us=abc", "match CSLS extra junk"}) {
    SCOPED_TRACE(line);
    Result<WireRequest> parsed = ParseRequest(line);
    EXPECT_FALSE(parsed.ok());
  }
}

TEST(ProtocolResponse, ValuesRoundTrip) {
  const std::vector<int32_t> values = {0, -1, 5, 2147483647, -2147483648};
  Result<WireResponse> parsed = ParseResponse(EncodeValuesResponse(values));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_EQ(parsed->values, values);
}

TEST(ProtocolResponse, TextRoundTrip) {
  const std::string text = "{\"submitted\": 3}";
  Result<WireResponse> parsed = ParseResponse(EncodeTextResponse(text));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_EQ(parsed->text, text);
}

TEST(ProtocolResponse, ErrorRoundTripPreservesCode) {
  const Status original =
      Status::ResourceExhausted("declared workspace over budget");
  Result<WireResponse> parsed = ParseResponse(EncodeErrorResponse(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed->status.message().find("over budget"), std::string::npos);
}

TEST(ProtocolResponse, DeadlineExceededCodeSurvivesTheWire) {
  const Status original = Status::DeadlineExceeded("expired in queue");
  Result<WireResponse> parsed = ParseResponse(EncodeErrorResponse(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ProtocolResponse, UnavailableWithRetryAfterRoundTrip) {
  const Status original = Status::Unavailable("request queue full");
  Result<WireResponse> parsed =
      ParseResponse(EncodeErrorResponse(original, /*retry_after_micros=*/2500));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(parsed->retry_after_micros, 2500u);
  EXPECT_NE(parsed->status.message().find("queue full"), std::string::npos);
  // The hint token must not leak into the human-readable message.
  EXPECT_EQ(parsed->status.message().find("retry_after_us"),
            std::string::npos);
}

TEST(ProtocolResponse, ErrorWithoutRetryAfterParsesAsZero) {
  Result<WireResponse> parsed =
      ParseResponse(EncodeErrorResponse(Status::Unavailable("shed")));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->retry_after_micros, 0u);
}

TEST(ProtocolResponse, TruncatedValuesPayloadRejected) {
  std::string wire = EncodeValuesResponse({1, 2, 3});
  wire.resize(wire.size() - 2);  // chop mid-int32
  Result<WireResponse> parsed = ParseResponse(wire);
  EXPECT_FALSE(parsed.ok());
}

TEST(ProtocolResponse, GarbageHeaderRejected) {
  for (const char* payload : {"", "what\n", "ok\n", "ok values\n",
                              "ok values notanumber\n", "error\n"}) {
    SCOPED_TRACE(payload);
    Result<WireResponse> parsed = ParseResponse(payload);
    EXPECT_FALSE(parsed.ok());
  }
}

// -------------------------------------------------------------------- v2 --

TEST(ProtocolRequest, HelloAndShardsRoundTrip) {
  for (const auto verb :
       {WireRequest::Verb::kHello, WireRequest::Verb::kShards}) {
    WireRequest request;
    request.verb = verb;
    Result<WireRequest> parsed = ParseRequest(EncodeRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->verb, verb);
  }
}

TEST(ProtocolRequest, HelloHandshakeChecksProtocolVersion) {
  const std::string hello = HelloJson("shard");
  EXPECT_NE(hello.find("\"role\":\"shard\""), std::string::npos);
  EXPECT_TRUE(CheckHello(hello, "peer").ok());
  // A peer speaking another protocol version is refused with a clear,
  // permanent error.
  Status alien = CheckHello("{\"protocol\":99}", "shard 3");
  EXPECT_EQ(alien.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(alien.message().find("shard 3"), std::string::npos);
  // A pre-v2 peer (no JSON hello at all) is also kFailedPrecondition.
  EXPECT_EQ(CheckHello("not json", "peer").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(CheckHello("{}", "peer").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProtocolRequest, PairOptionRoundTrip) {
  Result<WireRequest> parsed = ParseRequest("match CSLS pair=dz");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->pair, "dz");
  WireRequest request = *parsed;
  EXPECT_EQ(ParseRequest(EncodeRequest(request))->pair, "dz");
}

TEST(ProtocolRequest, RouteRoundTrip) {
  Result<WireRequest> parsed = ParseRequest("route dz 4:9 topk RInf 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->route);
  EXPECT_EQ(parsed->pair, "dz");
  EXPECT_EQ(parsed->row_begin, 4u);
  EXPECT_EQ(parsed->row_end, 9u);
  EXPECT_EQ(parsed->verb, WireRequest::Verb::kTopK);
  EXPECT_EQ(parsed->k, 5u);
  Result<WireRequest> again = ParseRequest(EncodeRequest(*parsed));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->route);
  EXPECT_EQ(again->row_begin, 4u);
  EXPECT_EQ(again->row_end, 9u);
}

TEST(ProtocolRequest, MalformedRoutesRejected) {
  for (const char* line :
       {"route", "route dz", "route dz 0:4", "route dz 4:4 match DInf",
        "route dz 9:4 match DInf", "route dz 0:x match DInf",
        "route dz 0:4 stats", "route dz 0:4 match DInf pair=other"}) {
    SCOPED_TRACE(line);
    EXPECT_FALSE(ParseRequest(line).ok());
  }
}

// Numbers on the wire are digits only and never wrap: an overflowing
// deadline used to read as no deadline, k as 1 and a range as 0:1.
TEST(ProtocolRequest, OverflowingNumbersRejected) {
  for (const char* line :
       {"match DInf timeout_us=18446744073709551616",
        "topk CSLS 18446744073709551617",
        "route p 0:18446744073709551617 match DInf",
        "swap p /a.emat /b.emat version=18446744073709551616"}) {
    SCOPED_TRACE(line);
    EXPECT_EQ(ParseRequest(line).status().code(),
              StatusCode::kInvalidArgument);
  }
  Result<WireRequest> largest =
      ParseRequest("match DInf timeout_us=18446744073709551615");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->timeout_micros, UINT64_MAX);
}

TEST(ProtocolResponse, ValuesCountsBeyondThePayloadRejected) {
  // Counts whose byte size wraps to the payload's must not pass the size
  // check (and then reserve 2^62 entries).
  for (const char* payload :
       {"ok values 4611686018427387904\n",
        "ok values 1 scores=4611686018427387904\nabcd",
        "ok values 18446744073709551616\n"}) {
    SCOPED_TRACE(payload);
    EXPECT_FALSE(ParseResponse(payload).ok());
  }
}

TEST(ProtocolReply, SwappedVersion) {
  Result<uint64_t> version = ParseSwappedVersion("swapped dz v12");
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 12u);
  for (const char* reply :
       {"", "swapped dz", "swapped dz 12", "swapped dz v", "swapped dz v-1",
        "swapped dz v18446744073709551616", "swapped dz v3 extra",
        "published dz v3"}) {
    SCOPED_TRACE(reply);
    EXPECT_FALSE(ParseSwappedVersion(reply).ok());
  }
}

TEST(ProtocolReply, HealthPairVersion) {
  const std::string health =
      "{\"role\": \"shard\", \"pairs\": {\"a\": 3, \"b\": 1}}";
  EXPECT_EQ(HealthPairVersion(health, "a"), 3u);
  EXPECT_EQ(HealthPairVersion(health, "b"), 1u);
  EXPECT_EQ(HealthPairVersion(health, "missing"), 0u);
  EXPECT_EQ(HealthPairVersion("{\"pairs\": {\"a\": -4}}", "a"), 0u);
  EXPECT_EQ(HealthPairVersion("not json", "a"), 0u);
  EXPECT_EQ(HealthPairVersion("{}", "a"), 0u);
  // A version that is not an integer literal is no version: not 2.5
  // truncated to 2, and not a double past int64 cast to an integer.
  for (const char* version :
       {"2.5", "3e0", "18446744073709551616", "1e300", "\"3\"", "true"}) {
    SCOPED_TRACE(version);
    EXPECT_EQ(HealthPairVersion(std::string("{\"pairs\": {\"a\": ") +
                                    version + "}}",
                                "a"),
              0u);
  }
}

TEST(ProtocolRequest, SwapVersionFloorRoundTrip) {
  Result<WireRequest> parsed =
      ParseRequest("swap dz /a.emat /b.emat index=/c.eidx version=7");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->swap_min_version, 7u);
  EXPECT_EQ(parsed->index_path, "/c.eidx");
  Result<WireRequest> again = ParseRequest(EncodeRequest(*parsed));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->swap_min_version, 7u);
}

TEST(ProtocolResponse, VersionedRangedScoredValuesRoundTrip) {
  const std::vector<int32_t> values = {7, -1, 42};
  const std::vector<float> scores = {0.25f, -1.5f, 3.0e-7f};
  Result<WireResponse> parsed = ParseResponse(EncodeValuesResponse(
      values, /*version=*/9, /*has_range=*/true, /*row_begin=*/4,
      /*row_end=*/7, scores));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->values, values);
  EXPECT_EQ(parsed->version, 9u);
  EXPECT_TRUE(parsed->has_range);
  EXPECT_EQ(parsed->row_begin, 4u);
  EXPECT_EQ(parsed->row_end, 7u);
  ASSERT_EQ(parsed->scores.size(), scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    // Bit-exact, not approximately-equal: the router merges on these.
    EXPECT_EQ(std::memcmp(&parsed->scores[i], &scores[i], sizeof(float)), 0);
  }
}

TEST(ProtocolResponse, V1ValuesResponseStillParses) {
  Result<WireResponse> parsed = ParseResponse(EncodeValuesResponse({1, 2}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 0u);
  EXPECT_FALSE(parsed->has_range);
  EXPECT_TRUE(parsed->scores.empty());
}

TEST(ProtocolResponse, TruncatedScoresPayloadRejected) {
  std::string wire =
      EncodeValuesResponse({1}, 1, true, 0, 1, {0.5f});
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(ParseResponse(wire).ok());
}

// v3 — degraded answers carry the covered source-row ranges.
TEST(ProtocolResponse, CoverageRoundTrip) {
  const std::vector<std::pair<size_t, size_t>> coverage = {{0, 8}, {16, 24}};
  Result<WireResponse> parsed = ParseResponse(EncodeValuesResponse(
      {1, -1, 2}, /*version=*/4, /*has_range=*/false, 0, 0, {}, coverage));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, 4u);
  EXPECT_EQ(parsed->coverage, coverage);
}

TEST(ProtocolResponse, FullCoverageOmitsTheField) {
  const std::string wire = EncodeValuesResponse({1, 2});
  EXPECT_EQ(wire.find("coverage="), std::string::npos);
  Result<WireResponse> parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->coverage.empty());
}

TEST(ProtocolResponse, MalformedCoverageRejected) {
  // An empty coverage list and an inverted range are both refused.
  const std::string body(4, '\0');  // one zero value
  EXPECT_FALSE(ParseResponse("ok values 1 coverage=\n" + body).ok());
  EXPECT_FALSE(ParseResponse("ok values 1 coverage=5:2\n" + body).ok());
}

}  // namespace
}  // namespace entmatcher
