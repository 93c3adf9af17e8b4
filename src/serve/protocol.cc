#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/json.h"
#include "common/string_util.h"

namespace entmatcher {

namespace {

// write(2) for sockets, with SIGPIPE suppressed: a peer that disconnects
// mid-frame must surface as an EPIPE IoError the caller can handle, not kill
// the process. Pipes/regular files (the protocol tests) reject MSG_NOSIGNAL
// with ENOTSOCK, so fall back to plain write there.
ssize_t WriteChunk(int fd, const char* data, size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, size);
  return n;
}

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    // Chaos points: abort the write mid-frame (peer disconnect), or force
    // 1-byte chunks so every short-write path is exercised.
    EM_INJECT_FAULT("socket.write", StatusCode::kIoError);
    size_t chunk = size - written;
    if (const uint64_t forced =
            FaultInjector::Global().Param("socket.write.chunk");
        forced > 0 && forced < chunk) {
      chunk = static_cast<size_t>(forced);
    }
    const ssize_t n = WriteChunk(fd, data + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("write: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Reads exactly `size` bytes; `any_read` distinguishes clean EOF (peer
// closed between frames) from a truncated frame.
Status ReadAll(int fd, char* data, size_t size, bool* any_read) {
  size_t filled = 0;
  while (filled < size) {
    // Chaos points: fail the read (stalled/broken peer; pair with
    // latency_us= for a stall), or force 1-byte chunks.
    EM_INJECT_FAULT("socket.read", StatusCode::kIoError);
    size_t chunk = size - filled;
    if (const uint64_t forced =
            FaultInjector::Global().Param("socket.read.chunk");
        forced > 0 && forced < chunk) {
      chunk = static_cast<size_t>(forced);
    }
    const ssize_t n = ::read(fd, data + filled, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (filled == 0 && !*any_read) {
        return Status::NotFound("connection closed");
      }
      return Status::IoError("connection closed mid-frame");
    }
    *any_read = true;
    filled += static_cast<size_t>(n);
  }
  return Status::OK();
}

void AppendUint32Le(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 24) & 0xff));
}

uint32_t ReadUint32Le(const char* data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

Result<uint64_t> ParseUint(std::string_view text) {
  uint64_t value = 0;
  if (!ParseUint64(text, &value)) {
    return Status::InvalidArgument("bad number: '" + std::string(text) + "'");
  }
  return value;
}

// Splits on single spaces, dropping empties.
std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  for (std::string_view token : SplitString(line, ' ')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

// Parses "LO:HI" with LO < HI — an empty routed range answers nothing and
// only ever signals a router bug, so it is refused at parse time.
Status ParseRange(std::string_view text, size_t* begin, size_t* end) {
  const size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("range must be LO:HI, got " +
                                   std::string(text));
  }
  EM_ASSIGN_OR_RETURN(const uint64_t lo, ParseUint(text.substr(0, colon)));
  EM_ASSIGN_OR_RETURN(const uint64_t hi, ParseUint(text.substr(colon + 1)));
  if (lo >= hi) {
    return Status::InvalidArgument("range is empty or inverted: " +
                                   std::string(text));
  }
  *begin = static_cast<size_t>(lo);
  *end = static_cast<size_t>(hi);
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload too large");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendUint32Le(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::string> ReadFrame(int fd) {
  char header[4];
  bool any_read = false;
  EM_RETURN_NOT_OK(ReadAll(fd, header, sizeof(header), &any_read));
  const uint32_t length = ReadUint32Le(header);
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(length) +
                                   " exceeds the cap");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    EM_RETURN_NOT_OK(ReadAll(fd, payload.data(), length, &any_read));
  }
  return payload;
}

Result<AlgorithmPreset> ParseServableAlgorithm(std::string_view name) {
  EM_ASSIGN_OR_RETURN(const AlgorithmPreset preset, ParsePreset(name));
  if (preset == AlgorithmPreset::kRl) {
    return Status::InvalidArgument(
        "RL needs KG context and cannot be served; use entmatcher_cli match");
  }
  return preset;
}

std::string EncodeRequest(const WireRequest& request) {
  std::string line;
  switch (request.verb) {
    case WireRequest::Verb::kMatch:
      line = "match " + std::string(PresetName(request.algorithm));
      break;
    case WireRequest::Verb::kTopK:
      line = "topk " + std::string(PresetName(request.algorithm)) + " " +
             std::to_string(request.k);
      break;
    case WireRequest::Verb::kStats:
      return "stats";
    case WireRequest::Verb::kHealth:
      return "health";
    case WireRequest::Verb::kHello:
      return "hello";
    case WireRequest::Verb::kShards:
      return "shards";
    case WireRequest::Verb::kShutdown:
      return "shutdown";
    case WireRequest::Verb::kSwap:
      line = "swap " + request.pair + " " + request.source_path + " " +
             request.target_path;
      if (!request.index_path.empty()) {
        line += " index=" + request.index_path;
      }
      if (request.swap_min_version > 0) {
        line += " version=" + std::to_string(request.swap_min_version);
      }
      return line;
  }
  if (request.route) {
    // Routed sub-queries front-load the pair and range so the shard grammar
    // stays prefix-decodable: "route <pair> <lo>:<hi> <match|topk> ...".
    line = "route " + (request.pair.empty() ? "default" : request.pair) + " " +
           std::to_string(request.row_begin) + ":" +
           std::to_string(request.row_end) + " " + line;
  } else if (!request.pair.empty()) {
    line += " pair=" + request.pair;
  }
  if (request.timeout_micros > 0) {
    line += " timeout_us=" + std::to_string(request.timeout_micros);
  }
  return line;
}

Result<WireRequest> ParseRequest(std::string_view payload) {
  std::vector<std::string_view> tokens = Tokens(payload);
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  WireRequest request;
  if (tokens[0] == "route") {
    // "route <pair> <lo>:<hi> <match|topk> ..." — strip the routing prefix
    // and fall through to the ordinary match/topk grammar below.
    if (tokens.size() < 4) {
      return Status::InvalidArgument(
          "route needs: route <pair> <lo>:<hi> <match|topk> ...");
    }
    request.route = true;
    request.pair = std::string(tokens[1]);
    EM_RETURN_NOT_OK(
        ParseRange(tokens[2], &request.row_begin, &request.row_end));
    tokens.erase(tokens.begin(), tokens.begin() + 3);
    if (tokens[0] != "match" && tokens[0] != "topk") {
      return Status::InvalidArgument("route wraps match or topk, got " +
                                     std::string(tokens[0]));
    }
  }
  size_t next = 1;
  if (tokens[0] == "stats") {
    request.verb = WireRequest::Verb::kStats;
  } else if (tokens[0] == "health") {
    request.verb = WireRequest::Verb::kHealth;
  } else if (tokens[0] == "hello") {
    request.verb = WireRequest::Verb::kHello;
  } else if (tokens[0] == "shards") {
    request.verb = WireRequest::Verb::kShards;
  } else if (tokens[0] == "shutdown") {
    request.verb = WireRequest::Verb::kShutdown;
  } else if (tokens[0] == "swap") {
    request.verb = WireRequest::Verb::kSwap;
    if (tokens.size() < 4) {
      return Status::InvalidArgument(
          "swap needs: swap <pair> <source_path> <target_path> [index=PATH]");
    }
    request.pair = std::string(tokens[1]);
    request.source_path = std::string(tokens[2]);
    request.target_path = std::string(tokens[3]);
    next = 4;
    while (next < tokens.size()) {
      const std::string_view kIndex = "index=";
      const std::string_view kVersion = "version=";
      if (StartsWith(tokens[next], kIndex)) {
        request.index_path = std::string(tokens[next].substr(kIndex.size()));
        if (request.index_path.empty()) {
          return Status::InvalidArgument("index= needs a path");
        }
        ++next;
        continue;
      }
      if (StartsWith(tokens[next], kVersion)) {
        EM_ASSIGN_OR_RETURN(
            request.swap_min_version,
            ParseUint(tokens[next].substr(kVersion.size())));
        ++next;
        continue;
      }
      break;
    }
  } else if (tokens[0] == "match" || tokens[0] == "topk") {
    request.verb = tokens[0] == "match" ? WireRequest::Verb::kMatch
                                        : WireRequest::Verb::kTopK;
    if (tokens.size() < 2) {
      return Status::InvalidArgument("missing algorithm name");
    }
    EM_ASSIGN_OR_RETURN(request.algorithm,
                        ParseServableAlgorithm(tokens[1]));
    next = 2;
    if (request.verb == WireRequest::Verb::kTopK) {
      if (tokens.size() < 3) return Status::InvalidArgument("missing k");
      EM_ASSIGN_OR_RETURN(const uint64_t k, ParseUint(tokens[2]));
      if (k == 0) return Status::InvalidArgument("k must be >= 1");
      request.k = static_cast<size_t>(k);
      next = 3;
    }
  } else {
    return Status::InvalidArgument("unknown verb: " + std::string(tokens[0]));
  }
  for (; next < tokens.size(); ++next) {
    const std::string_view token = tokens[next];
    const std::string_view kTimeout = "timeout_us=";
    const std::string_view kPair = "pair=";
    if (StartsWith(token, kTimeout)) {
      EM_ASSIGN_OR_RETURN(request.timeout_micros,
                          ParseUint(token.substr(kTimeout.size())));
    } else if (StartsWith(token, kPair) &&
               (request.verb == WireRequest::Verb::kMatch ||
                request.verb == WireRequest::Verb::kTopK)) {
      if (request.route) {
        return Status::InvalidArgument(
            "route already names the pair; pair= is not allowed");
      }
      request.pair = std::string(token.substr(kPair.size()));
      if (request.pair.empty()) {
        return Status::InvalidArgument("pair= needs a name");
      }
    } else {
      return Status::InvalidArgument("unknown option: " + std::string(token));
    }
  }
  return request;
}

std::string EncodeValuesResponse(
    const std::vector<int32_t>& values, uint64_t version, bool has_range,
    size_t row_begin, size_t row_end, const std::vector<float>& scores,
    const std::vector<std::pair<size_t, size_t>>& coverage) {
  std::string payload = "ok values " + std::to_string(values.size());
  if (version > 0) payload += " version=" + std::to_string(version);
  if (has_range) {
    payload += " range=" + std::to_string(row_begin) + ":" +
               std::to_string(row_end);
  }
  if (!scores.empty()) payload += " scores=" + std::to_string(scores.size());
  if (!coverage.empty()) {
    payload += " coverage=";
    for (size_t i = 0; i < coverage.size(); ++i) {
      if (i > 0) payload += ",";
      payload += std::to_string(coverage[i].first);
      payload += ":";
      payload += std::to_string(coverage[i].second);
    }
  }
  payload += "\n";
  payload.reserve(payload.size() + values.size() * 4 + scores.size() * 4);
  for (int32_t value : values) {
    AppendUint32Le(&payload, static_cast<uint32_t>(value));
  }
  for (float score : scores) {
    // Bit pattern, not a decimal rendering: routed topk merges must compare
    // exactly the floats the shard computed.
    uint32_t bits;
    std::memcpy(&bits, &score, sizeof(bits));
    AppendUint32Le(&payload, bits);
  }
  return payload;
}

std::string EncodeTextResponse(std::string_view text) {
  return "ok text\n" + std::string(text);
}

std::string EncodeErrorResponse(const Status& status,
                                uint64_t retry_after_micros) {
  std::string payload =
      "error " + std::string(StatusCodeToString(status.code()));
  if (retry_after_micros > 0) {
    payload += " retry_after_us=" + std::to_string(retry_after_micros);
  }
  payload += " " + status.message();
  return payload;
}

Result<WireResponse> ParseResponse(std::string_view payload) {
  WireResponse response;
  if (StartsWith(payload, "error ")) {
    std::string_view rest = payload.substr(6);
    const size_t space = rest.find(' ');
    const std::string_view code_name =
        space == std::string_view::npos ? rest : rest.substr(0, space);
    std::string_view message =
        space == std::string_view::npos ? std::string_view()
                                        : rest.substr(space + 1);
    const std::string_view kRetryAfter = "retry_after_us=";
    if (StartsWith(message, kRetryAfter)) {
      const size_t hint_end = message.find(' ');
      const std::string_view hint =
          (hint_end == std::string_view::npos ? message
                                              : message.substr(0, hint_end))
              .substr(kRetryAfter.size());
      EM_ASSIGN_OR_RETURN(response.retry_after_micros, ParseUint(hint));
      message = hint_end == std::string_view::npos
                    ? std::string_view()
                    : message.substr(hint_end + 1);
    }
    StatusCode code = StatusCodeFromString(code_name);
    if (code == StatusCode::kOk) code = StatusCode::kInternal;
    response.status = Status(code, std::string(message));
    return response;
  }
  const size_t newline = payload.find('\n');
  const std::string_view header =
      newline == std::string_view::npos ? payload : payload.substr(0, newline);
  const std::string_view body =
      newline == std::string_view::npos ? std::string_view()
                                        : payload.substr(newline + 1);
  if (header == "ok text") {
    response.text = std::string(body);
    return response;
  }
  if (StartsWith(header, "ok values ")) {
    const std::vector<std::string_view> fields = Tokens(header.substr(10));
    if (fields.empty()) {
      return Status::InvalidArgument("values header missing count");
    }
    EM_ASSIGN_OR_RETURN(const uint64_t count, ParseUint(fields[0]));
    uint64_t score_count = 0;
    for (size_t i = 1; i < fields.size(); ++i) {
      const std::string_view kVersion = "version=";
      const std::string_view kRange = "range=";
      const std::string_view kScores = "scores=";
      const std::string_view kCoverage = "coverage=";
      if (StartsWith(fields[i], kVersion)) {
        EM_ASSIGN_OR_RETURN(response.version,
                            ParseUint(fields[i].substr(kVersion.size())));
      } else if (StartsWith(fields[i], kRange)) {
        EM_RETURN_NOT_OK(ParseRange(fields[i].substr(kRange.size()),
                                    &response.row_begin, &response.row_end));
        response.has_range = true;
      } else if (StartsWith(fields[i], kScores)) {
        EM_ASSIGN_OR_RETURN(score_count,
                            ParseUint(fields[i].substr(kScores.size())));
      } else if (StartsWith(fields[i], kCoverage)) {
        std::string_view list = fields[i].substr(kCoverage.size());
        while (!list.empty()) {
          const size_t comma = list.find(',');
          const std::string_view item =
              comma == std::string_view::npos ? list : list.substr(0, comma);
          size_t lo = 0;
          size_t hi = 0;
          EM_RETURN_NOT_OK(ParseRange(item, &lo, &hi));
          response.coverage.push_back({lo, hi});
          list = comma == std::string_view::npos ? std::string_view()
                                                 : list.substr(comma + 1);
        }
        if (response.coverage.empty()) {
          return Status::InvalidArgument("coverage= carries no ranges");
        }
      } else {
        return Status::InvalidArgument("unknown values header field: " +
                                       std::string(fields[i]));
      }
    }
    // Compared in 4-byte words so that no count can wrap the product.
    const uint64_t words = body.size() / 4;
    if (body.size() % 4 != 0 || count > words ||
        score_count != words - count) {
      return Status::InvalidArgument(
          "values payload is " + std::to_string(body.size()) + " B for " +
          std::to_string(count) + " values and " +
          std::to_string(score_count) + " scores");
    }
    response.values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      response.values.push_back(
          static_cast<int32_t>(ReadUint32Le(body.data() + i * 4)));
    }
    response.scores.reserve(score_count);
    for (uint64_t i = 0; i < score_count; ++i) {
      const uint32_t bits = ReadUint32Le(body.data() + (count + i) * 4);
      float score;
      std::memcpy(&score, &bits, sizeof(score));
      response.scores.push_back(score);
    }
    return response;
  }
  return Status::InvalidArgument("unparseable response header: " +
                                 std::string(header));
}

uint64_t HealthPairVersion(std::string_view health_json,
                           const std::string& pair) {
  Result<JsonValue> doc = JsonValue::Parse(health_json);
  if (!doc.ok()) return 0;
  const JsonValue* pairs = doc->Find("pairs");
  const JsonValue* version = pairs != nullptr ? pairs->Find(pair) : nullptr;
  if (version == nullptr || !version->is_int() || version->AsInt() <= 0) {
    return 0;
  }
  return static_cast<uint64_t>(version->AsInt());
}

Result<uint64_t> ParseSwappedVersion(std::string_view reply) {
  const std::vector<std::string_view> tokens = Tokens(reply);
  uint64_t version = 0;
  if (tokens.size() != 3 || tokens[0] != "swapped" ||
      !StartsWith(tokens[2], "v") ||
      !ParseUint64(tokens[2].substr(1), &version)) {
    return Status::InvalidArgument("not a 'swapped <pair> v<N>' reply: '" +
                                   std::string(reply) + "'");
  }
  return version;
}

std::string HelloJson(std::string_view role) {
  return JsonValue(JsonValue::Object{{"protocol", kProtocolVersion},
                                     {"build", EM_BUILD_VERSION},
                                     {"role", std::string(role)}})
      .Dump();
}

Status CheckHello(std::string_view hello_json, std::string_view peer_name) {
  auto parsed = JsonValue::Parse(hello_json);
  if (!parsed.ok()) {
    return Status::FailedPrecondition(
        std::string(peer_name) +
        ": unparseable hello payload (pre-v2 peer?): " +
        parsed.status().message());
  }
  auto protocol = parsed.value().GetInt("protocol");
  if (!protocol.ok()) {
    return Status::FailedPrecondition(std::string(peer_name) +
                                      ": hello carries no protocol field");
  }
  if (protocol.value() != kProtocolVersion) {
    return Status::FailedPrecondition(
        std::string(peer_name) + ": protocol mismatch: peer speaks v" +
        std::to_string(protocol.value()) + ", this build speaks v" +
        std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

}  // namespace entmatcher
