// CLI tests over both embedding formats: every command that reads
// embeddings goes through ReadMatrixBinary, so an EMAT pair and its
// `mmap pack`ed EMBF twin must give the same bytes out of `match`,
// `index build` and `fleet plan`, and a `serve` loaded from EMBF must take
// a `swap` to EMBF files. Also pins the one argument parser's refusals,
// the server flags a fleet shard shares with `serve`, and the refusal of a
// dataset joined with too few embedding rows. Drives the built
// entmatcher_cli (located via EM_CLI_PATH) as a child process.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/plan.h"
#include "la/matrix_io.h"
#include "la/mmap_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 40;
constexpr size_t kTargets = 48;
constexpr size_t kDim = 12;

const char* const kPresets[] = {"DInf", "CSLS", "RInf", "RInf-wr",
                                "RInf-pb", "Sink.", "Hun.", "SMat"};

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("EM_CLI_PATH");
    if (cli == nullptr) {
      GTEST_SKIP() << "EM_CLI_PATH not set (run through ctest)";
    }
    cli_ = cli;
    dir_ = "/tmp/em_cli_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    // Pair "a" and a second version "b", each as EMAT and packed to EMBF.
    const struct {
      const char* name;
      size_t rows;
      uint64_t seed;
    } sides[] = {{"a.src", kRows, 1},
                 {"a.tgt", kTargets, 2},
                 {"b.src", kRows, 3},
                 {"b.tgt", kTargets, 4}};
    for (const auto& side : sides) {
      const std::string emat = Path(std::string(side.name) + ".emat");
      ASSERT_TRUE(
          WriteMatrixBinary(RandomEmbeddings(side.rows, side.seed), emat)
              .ok());
      std::string output;
      ASSERT_EQ(Run({"mmap", "pack", emat,
                     Path(std::string(side.name) + ".embf")},
                    &output),
                0)
          << output;
    }
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Runs the CLI with `args`; stdout and stderr go to `*output`. Returns the
  /// exit code, as the shell reports it: 128 + N when signal N killed the
  /// CLI (-1 when the shell itself was killed).
  int Run(const std::vector<std::string>& args, std::string* output) const {
    std::string command = "'" + cli_ + "'";
    for (const std::string& arg : args) command += " '" + arg + "'";
    command += " 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) return -1;
    output->clear();
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      output->append(buffer, n);
    }
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Runs the CLI with `args` and parses its whole output as one JSON
  /// document.
  Result<JsonValue> RunJson(const std::vector<std::string>& args) const {
    std::string output;
    const int code = Run(args, &output);
    if (code != 0) {
      return Status::Internal("exit " + std::to_string(code) + ": " + output);
    }
    return JsonValue::Parse(output);
  }

  /// Starts `entmatcher_cli serve <src> <tgt>` on `socket` and waits until
  /// it accepts connections. Returns the child's pid, or -1.
  pid_t StartServe(const std::string& src, const std::string& tgt,
                   const std::string& socket) const {
    return StartServer({"serve", src, tgt, "--socket=" + socket,
                        "--serve-workers=1", "--threads=1"},
                       socket);
  }

  /// Starts the CLI with `cli_args` (a command that serves on `socket`,
  /// logging to serve.log) and waits until it accepts connections. Returns
  /// the child's pid, or -1.
  pid_t StartServer(const std::vector<std::string>& cli_args,
                    const std::string& socket) const {
    const std::string log = Path("serve.log");
    std::vector<std::string> args = {cli_};
    args.insert(args.end(), cli_args.begin(), cli_args.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid < 0) return -1;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < give_up) {
      if (ServeClient::Connect(socket).ok()) return pid;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        ADD_FAILURE() << "serve exited early:\n" << FileBytes(log);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "serve never listened:\n" << FileBytes(log);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
  }

  /// Sends `shutdown` to the server on `socket` and expects child `pid` to
  /// exit 0.
  void ShutDown(const std::string& socket, pid_t pid) const {
    Result<ServeClient> client = ServeClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<WireRequest> shutdown = ParseRequest("shutdown");
    ASSERT_TRUE(shutdown.ok());
    EXPECT_TRUE(client->Call(*shutdown).ok());
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << FileBytes(Path("serve.log"));
  }

  std::string cli_;
  std::string dir_;
};

// `match -` writes byte-identical links from either format, for every
// preset the raw-pair mode runs.
TEST_F(CliTest, MatchWritesIdenticalLinksFromEitherFormat) {
  for (const char* preset : kPresets) {
    SCOPED_TRACE(preset);
    std::string output;
    for (const char* format : {"emat", "embf"}) {
      const std::string ext = std::string(".") + format;
      ASSERT_EQ(Run({"match", "-", Path("a.src" + ext), Path("a.tgt" + ext),
                     preset, Path(std::string("links") + ext + ".tsv")},
                    &output),
                0)
          << output;
    }
    const std::string from_emat = FileBytes(Path("links.emat.tsv"));
    EXPECT_FALSE(from_emat.empty());
    EXPECT_EQ(from_emat, FileBytes(Path("links.embf.tsv")));
  }
}

TEST_F(CliTest, IndexBuildWritesIdenticalIndexFromEitherFormat) {
  std::string output;
  for (const char* format : {"emat", "embf"}) {
    const std::string ext = std::string(".") + format;
    ASSERT_EQ(Run({"index", "build", Path("a.tgt" + ext),
                   Path(std::string("index") + ext + ".eidx"),
                   "--backend=hnsw"},
                  &output),
              0)
        << output;
  }
  const std::string from_emat = FileBytes(Path("index.emat.eidx"));
  EXPECT_FALSE(from_emat.empty());
  EXPECT_EQ(from_emat, FileBytes(Path("index.embf.eidx")));
}

TEST_F(CliTest, FleetPlanReadsRowsFromEitherFormat) {
  for (const char* format : {"emat", "embf"}) {
    SCOPED_TRACE(format);
    const std::string ext = std::string(".") + format;
    const std::string plan_path = Path(std::string("plan") + ext + ".json");
    std::string output;
    ASSERT_EQ(Run({"fleet", "plan", "p", Path("a.src" + ext),
                   Path("a.tgt" + ext), "--shards=2", "--out=" + plan_path,
                   "--socket-dir=" + dir_},
                  &output),
              0)
        << output;
    Result<ShardPlan> plan = ShardPlan::Load(plan_path);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE(plan->FindPair("p"), nullptr);
    EXPECT_EQ(plan->FindPair("p")->rows, kRows);
  }
}

// A server loaded from EMBF takes a swap to EMBF files, then answers every
// preset as a server loaded from those files.
TEST_F(CliTest, ServeFromEmbfSwapsToEmbfFiles) {
  const std::string socket = Path("serve.sock");
  const pid_t pid = StartServe(Path("a.src.embf"), Path("a.tgt.embf"), socket);
  ASSERT_GT(pid, 0);

  std::string output;
  EXPECT_EQ(Run({"swap", Path("b.src.embf"), Path("b.tgt.embf"),
                 "--socket=" + socket},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("swapped default v2"), std::string::npos) << output;
  EXPECT_EQ(Run({"query", "--socket=" + socket, "match", "CSLS"}, &output), 0)
      << output;

  Result<Matrix> src = ReadMatrixBinary(Path("b.src.embf"));
  Result<Matrix> tgt = ReadMatrixBinary(Path("b.tgt.embf"));
  ASSERT_TRUE(src.ok() && tgt.ok());
  MatchServerConfig config;
  config.serve_workers = 1;
  Result<std::unique_ptr<MatchServer>> expected = MatchServer::Create(config);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE((*expected)
                  ->LoadPair("default", std::move(src).value(),
                             std::move(tgt).value())
                  .ok());
  ASSERT_TRUE((*expected)->Start().ok());

  Result<ServeClient> client = ServeClient::Connect(socket);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const char* preset : kPresets) {
    SCOPED_TRACE(preset);
    Result<WireRequest> request =
        ParseRequest(std::string("match ") + preset);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<WireResponse> served = client->Call(*request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served->status.ok()) << served->status.ToString();
    ServeRequest local;
    local.options = MakePreset(request->algorithm);
    const ServeResponse want = (*expected)->Query(local);
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    EXPECT_EQ(served->values, want.assignment.target_of_source);
  }
  (*expected)->Shutdown();

  Result<WireRequest> shutdown = ParseRequest("shutdown");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(client->Call(*shutdown).ok());
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << FileBytes(Path("serve.log"));
}

// Either format reaches the finite check: one NaN in an EMBF target is
// refused at load, naming its cell, before any matcher sees it.
TEST_F(CliTest, NonFiniteEmbfIsRefusedAtLoad) {
  Matrix target = RandomEmbeddings(kTargets, 2);
  target.At(7, 3) = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(MmapStore::Write(target, Path("nan.tgt.embf")).ok());
  for (const char* preset : {"Sink.", "Hun."}) {
    SCOPED_TRACE(preset);
    std::string output;
    EXPECT_NE(Run({"match", "-", Path("a.src.embf"), Path("nan.tgt.embf"),
                   preset},
                  &output),
              0);
    EXPECT_NE(output.find("row 7, column 3"), std::string::npos) << output;
  }
}

// The format is told by the file, so the flag that used to pick it is gone:
// each command stops at the flag with its usage line. `serve` is given
// missing files, so a build that accepted the flag fails at load (without
// the usage line) instead of serving forever.
TEST_F(CliTest, MmapFlagIsUnknown) {
  const std::string removed = "--" + std::string("mmap");
  const std::vector<std::vector<std::string>> commands = {
      {"match", "-", Path("a.src.embf"), Path("a.tgt.embf"), "CSLS", removed},
      {"index", "build", Path("a.tgt.embf"), Path("x.eidx"), removed},
      {"serve", Path("missing.src.embf"), Path("missing.tgt.embf"), removed,
       "--socket=" + Path("never.sock")},
  };
  for (const std::vector<std::string>& command : commands) {
    SCOPED_TRACE(command.front());
    std::string output;
    EXPECT_NE(Run(command, &output), 0);
    EXPECT_NE(output.find("usage:"), std::string::npos) << output;
  }
}

// Every command reads its flags through one parser: a malformed number
// names its flag, and an unknown flag gets the usage line, each exiting 1.
// `query` hands an unknown word to the wire parser, which refuses it. Each
// command is given missing inputs, so a build that took a bad flag fails
// later instead of serving forever.
TEST_F(CliTest, EveryCommandRefusesMalformedValuesAndUnknownFlags) {
  const std::string never = "--socket=" + Path("never.sock");
  // `serve`'s and `fleet serve`'s own numeric flags plus the server flags.
  const auto with_server_flags = [](std::vector<std::string> flags) {
    for (const char* flag : {"threads", "serve-workers", "cache-bytes",
                             "max-batch", "flush-micros", "queue-capacity",
                             "shed-watermark"}) {
      flags.push_back(flag);
    }
    return flags;
  };
  struct Case {
    std::vector<std::string> command;
    std::vector<std::string> numbers;  // its flags that take a number
  };
  const std::vector<Case> cases = {
      {{"index", "build", Path("a.tgt.emat"), Path("x.eidx")},
       {"lists", "kmeans-iters", "seed", "M", "ef-construction"}},
      {{"mmap", "synth-pair", Path("synth")},
       {"rows", "dim", "clusters", "seed", "noise", "spread"}},
      {{"match", "-", Path("missing.src"), Path("missing.tgt"), "CSLS"},
       {"workspace-budget-bytes", "threads", "candidates", "nprobe", "ef"}},
      {{"serve", Path("missing.src"), Path("missing.tgt"), never},
       with_server_flags({"workspace-budget-bytes", "degrade-watermark",
                          "degrade-candidates", "degrade-nprobe",
                          "degrade-ef"})},
      {{"swap", Path("b.src.emat"), Path("b.tgt.emat"), never}, {}},
      {{"query", never, "stats"}, {"retries"}},
      {{"fleet", "plan", "p", Path("missing.src"), Path("missing.tgt"),
        "--out=" + Path("p.json")},
       {"shards", "replicas"}},
      {{"fleet", "serve", "--plan=" + Path("missing.json")},
       with_server_flags({"shard", "hedge-micros", "retries",
                          "breaker-failures", "breaker-cooldown-us"})},
      {{"fleet", "query", never, "shards"}, {"retries"}},
      {{"fleet", "swap", "p", Path("b.src.emat"), Path("b.tgt.emat"), never},
       {}},
      {{"fleet", "status", never}, {}},
  };
  for (const Case& c : cases) {
    const std::string name = c.command[0] == "fleet" || c.command[0] == "index"
                                 ? c.command[0] + " " + c.command[1]
                                 : c.command[0];
    SCOPED_TRACE(name);
    std::string output;
    for (const std::string& flag : c.numbers) {
      SCOPED_TRACE(flag);
      std::vector<std::string> args = c.command;
      args.push_back("--" + flag + "=x");
      EXPECT_EQ(Run(args, &output), 1) << output;
      EXPECT_NE(output.find("error: bad --" + flag + "= value: x"),
                std::string::npos)
          << output;
    }
    std::vector<std::string> args = c.command;
    args.push_back("--bogus=1");
    EXPECT_EQ(Run(args, &output), 1) << output;
    if (c.command[0] == "query" || name == "fleet query") {
      EXPECT_NE(output.find("InvalidArgument: unknown option: --bogus=1"),
                std::string::npos)
          << output;
    } else {
      EXPECT_NE(output.find("usage:"), std::string::npos) << output;
    }
  }
}

// A fleet shard takes the server flags `serve` takes: it refuses a malformed
// value of each of the seven, and starts with all seven set.
TEST_F(CliTest, FleetShardTakesTheSevenServerFlags) {
  const std::string plan_path = Path("shard_plan.json");
  std::string output;
  ASSERT_EQ(Run({"fleet", "plan", "p", Path("a.src.emat"), Path("a.tgt.emat"),
                 "--shards=1", "--out=" + plan_path, "--socket-dir=" + dir_},
                &output),
            0)
      << output;
  Result<ShardPlan> plan = ShardPlan::Load(plan_path);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string socket = plan->FindShard(0)->socket_path;
  const std::vector<std::string> shard = {"fleet", "serve",
                                          "--plan=" + plan_path, "--shard=0"};
  const std::vector<std::string> set = {
      "--threads=1",       "--serve-workers=2",   "--cache-bytes=65536",
      "--max-batch=4",     "--flush-micros=100", "--queue-capacity=16",
      "--shed-watermark=8"};
  for (const std::string& flag : set) {
    const std::string name = flag.substr(2, flag.find('=') - 2);
    SCOPED_TRACE(name);
    std::vector<std::string> args = shard;
    args.push_back("--" + name + "=x");
    EXPECT_EQ(Run(args, &output), 1) << output;
    EXPECT_NE(output.find("error: bad --" + name + "= value: x"),
              std::string::npos)
        << output;
  }

  std::vector<std::string> args = shard;
  args.insert(args.end(), set.begin(), set.end());
  const pid_t pid = StartServer(args, socket);
  ASSERT_GT(pid, 0);
  Result<ServeClient> client = ServeClient::Connect(socket);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<WireRequest> health = ParseRequest("health");
  ASSERT_TRUE(health.ok());
  Result<WireResponse> answer = client->Call(*health);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  Result<JsonValue> doc = JsonValue::Parse(answer->text);
  ASSERT_TRUE(doc.ok()) << answer->text;
  EXPECT_EQ(doc->GetInt("queue_capacity").value_or(-1), 16) << answer->text;
  EXPECT_EQ(doc->GetInt("shed_watermark").value_or(-1), 8) << answer->text;
  EXPECT_EQ(doc->GetInt("serve_workers").value_or(-1), 2) << answer->text;
  ShutDown(socket, pid);
  EXPECT_NE(FileBytes(Path("serve.log"))
                .find("shard 0 serving 1 pair(s) on " + socket),
            std::string::npos)
      << FileBytes(Path("serve.log"));
}

// Every status reply of the real binaries is one JSON document: `health`
// holds every key of `stats`, the router's `health` and `shards` carry the
// same channel objects, and `fleet serve` announces the restart policy its
// supervisor runs, as `fleet status` reports it.
TEST_F(CliTest, StatusRepliesAreOneDocumentEach) {
  const std::string socket = Path("status.sock");
  const pid_t pid = StartServe(Path("a.src.emat"), Path("a.tgt.emat"), socket);
  ASSERT_GT(pid, 0);
  const Result<JsonValue> stats =
      RunJson({"query", "--socket=" + socket, "stats"});
  const Result<JsonValue> health =
      RunJson({"query", "--socket=" + socket, "health"});
  ShutDown(socket, pid);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  for (const auto& [key, value] : stats->AsObject()) {
    EXPECT_NE(health->Find(key), nullptr) << key;
  }

  const std::string plan_path = Path("status_plan.json");
  std::string output;
  ASSERT_EQ(Run({"fleet", "plan", "p", Path("a.src.emat"), Path("a.tgt.emat"),
                 "--shards=2", "--out=" + plan_path, "--socket-dir=" + dir_},
                &output),
            0)
      << output;
  const std::string router = Path("router.sock");
  const pid_t fleet =
      StartServer({"fleet", "serve", "--plan=" + plan_path,
                   "--socket=" + router, "--serve-workers=1", "--threads=1"},
                  router);
  ASSERT_GT(fleet, 0);
  const Result<JsonValue> status =
      RunJson({"fleet", "status", "--socket=" + router});
  const Result<JsonValue> router_stats =
      RunJson({"fleet", "query", "--socket=" + router, "stats"});
  const Result<JsonValue> shards =
      RunJson({"fleet", "query", "--socket=" + router, "shards"});
  ShutDown(router, fleet);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  ASSERT_TRUE(router_stats.ok()) << router_stats.status().ToString();
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();

  const JsonValue* in_health_stats = status->Find("router_stats");
  ASSERT_NE(in_health_stats, nullptr) << status->Dump();
  for (const auto& [key, value] : router_stats->AsObject()) {
    EXPECT_NE(in_health_stats->Find(key), nullptr) << key;
  }
  const JsonValue::Array* in_health =
      status->GetArray("shards").value_or(nullptr);
  const JsonValue::Array* channels =
      shards->GetArray("channels").value_or(nullptr);
  ASSERT_TRUE(in_health != nullptr && in_health->size() == 2u)
      << status->Dump();
  ASSERT_TRUE(channels != nullptr && channels->size() == 2u)
      << shards->Dump();
  for (size_t i = 0; i < channels->size(); ++i) {
    JsonValue::Object channel = (*in_health)[i].AsObject();
    EXPECT_EQ(channel.erase("health"), 1u) << status->Dump();
    EXPECT_EQ(JsonValue(channel).Dump(), (*channels)[i].Dump());
  }

  const std::string log = FileBytes(Path("serve.log"));
  const std::string label = "restart-policy=";
  const size_t at = log.find(label);
  ASSERT_NE(at, std::string::npos) << log;
  const size_t begin = at + label.size();
  const std::string announced = log.substr(begin, log.find(';', begin) - begin);
  const JsonValue* supervisor = status->Find("supervisor");
  ASSERT_NE(supervisor, nullptr) << status->Dump();
  EXPECT_EQ(supervisor->GetString("policy").value_or(""), announced) << log;
}

// `match -` reports the workspace its query allocates, measured from where
// RunMatching measures: for DInf that is the n x m score matrix alone, not
// the two inputs the CLI read before the query.
TEST_F(CliTest, RawPairMatchCountsOnlyTheQueryWorkspace) {
  const std::string peak = "peak tracked workspace: " +
                           std::to_string(kRows * kTargets * sizeof(float)) +
                           " bytes (";
  for (const char* format : {"emat", "embf"}) {
    SCOPED_TRACE(format);
    const std::string ext = std::string(".") + format;
    std::string output;
    ASSERT_EQ(Run({"match", "-", Path("a.src" + ext), Path("a.tgt" + ext),
                   "DInf"},
                  &output),
              0)
        << output;
    EXPECT_NE(output.find(peak), std::string::npos) << output;
    EXPECT_NE(output.find("; arena high-water "), std::string::npos)
        << output;
  }
}

// `swap` and the `swap` verb through `query` send the same request: each
// publishes the next version of the pair.
TEST_F(CliTest, SwapAndQuerySwapEachPublishTheNextVersion) {
  const std::string socket = Path("swap.sock");
  const pid_t pid = StartServe(Path("a.src.emat"), Path("a.tgt.emat"), socket);
  ASSERT_GT(pid, 0);
  std::string output;
  EXPECT_EQ(Run({"swap", Path("b.src.emat"), Path("b.tgt.emat"),
                 "--socket=" + socket},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("swapped default v2"), std::string::npos) << output;
  EXPECT_EQ(Run({"query", "--socket=" + socket, "swap", "default",
                 Path("a.src.emat"), Path("a.tgt.emat")},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("swapped default v3"), std::string::npos) << output;
  ShutDown(socket, pid);
}

// A dataset joined with embeddings of fewer entities is refused with the
// first id that has no row, by `match` and by `index build --dataset`,
// instead of being read past the end of the mapping.
TEST_F(CliTest, DatasetLargerThanItsEmbeddingsIsRefused) {
  std::string output;
  ASSERT_EQ(Run({"generate", "D-Z", Path("ds"), "0.05"}, &output), 0)
      << output;
  ASSERT_EQ(Run({"mmap", "synth-pair", Path("tiny"), "--rows=10", "--dim=32"},
                &output),
            0)
      << output;
  const std::vector<std::vector<std::string>> commands = {
      {"match", Path("ds"), Path("tiny.src.embf"), Path("tiny.tgt.embf"),
       "DInf"},
      {"index", "build", Path("tiny.tgt.embf"), Path("x.eidx"),
       "--dataset=" + Path("ds")},
  };
  for (const std::vector<std::string>& command : commands) {
    SCOPED_TRACE(command.front());
    EXPECT_EQ(Run(command, &output), 1) << output;
    EXPECT_NE(output.find("has no row in an embedding matrix of 10 rows"),
              std::string::npos)
        << output;
  }
}

// A dataset entity id at or above kMaxEntities is refused, naming the file
// and line, before any graph is sized from it: `ent_links` used to grow the
// source graph to 4e9 entities and abort with std::bad_alloc.
TEST_F(CliTest, DatasetEntityIdPastTheBoundIsRefused) {
  std::string output;
  ASSERT_EQ(Run({"generate", "D-Z", Path("ds"), "0.05"}, &output), 0)
      << output;
  { std::ofstream(Path("ds/ent_links"), std::ios::app) << "4000000000\t0\n"; }
  EXPECT_EQ(Run({"stats", Path("ds")}, &output), 1) << output;
  EXPECT_NE(output.find("ent_links:"), std::string::npos) << output;
  EXPECT_NE(output.find("entity id 4000000000 is not below"),
            std::string::npos)
      << output;
}

// A relation id that makes the pair span more than kMaxRelationPairs is
// refused at load, naming both triple files: `embed` used to abort with
// std::bad_alloc sizing a table by the 3e9 relations.
TEST_F(CliTest, DatasetRelationPairsPastTheBoundAreRefused) {
  std::string output;
  ASSERT_EQ(Run({"generate", "D-Z", Path("ds"), "0.05"}, &output), 0)
      << output;
  {
    std::ofstream(Path("ds/rel_triples_1"), std::ios::app)
        << "0\t3000000000\t1\n";
  }
  EXPECT_EQ(Run({"embed", Path("ds"), "R", Path("emb")}, &output), 1)
      << output;
  EXPECT_NE(output.find("rel_triples_1 and "), std::string::npos) << output;
  EXPECT_NE(output.find("relation pairs a dataset may span"),
            std::string::npos)
      << output;
}

}  // namespace
}  // namespace entmatcher
