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
  for (const char* field : {"\"queue_capacity\": 16", "\"shed_watermark\": 8",
                            "\"serve_workers\": 2"}) {
    EXPECT_NE(answer->text.find(field), std::string::npos) << answer->text;
  }
  ShutDown(socket, pid);
  EXPECT_NE(FileBytes(Path("serve.log"))
                .find("shard 0 serving 1 pair(s) on " + socket),
            std::string::npos)
      << FileBytes(Path("serve.log"));
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

}  // namespace
}  // namespace entmatcher
