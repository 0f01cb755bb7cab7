// End-to-end distributed-tracing contract, exec-style against the real
// binaries (MERCHD_BIN / MERCHCTL_BIN / TRACE_MERGE_BIN, injected by
// CMake): a traced `merchctl remote` through a 2-shard `merchd --router`
// must yield per-process trace files that trace_merge stitches into one
// Perfetto-loadable timeline where the client, router, and worker spans
// share one trace_id connected by flow arrows. Also merchd's own CLI
// contracts: count flags checked before anything starts, and `--file`
// rows that print what they answered.
//
// Carries the "net" ctest label (`ctest -L net`), like the other live
// router contracts.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/validate.h"

namespace merch {
namespace {

std::string TestDir() {
  const std::string dir = ::testing::TempDir() + "/merch_distributed_cli";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Spawn `argv` with stdout/stderr sent to /dev/null; returns the pid.
pid_t Spawn(const std::vector<std::string>& argv) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);
  std::freopen("/dev/null", "w", stdout);
  std::freopen("/dev/null", "w", stderr);
  ::execv(raw[0], raw.data());
  ::_exit(127);
}

/// Exit code of a shell command, or -1 if it did not exit normally.
int RunCommand(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool WaitForFile(const std::string& path, int timeout_ms = 30000) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

TEST(DistributedCli, MalformedCountsExitTwoBeforeStartingAnything) {
  // Only values that would start nothing even if accepted are probed (a
  // count above its ceiling must never reach a run); the request file
  // holds no request.
  const std::string requests = TestDir() + "/empty_requests.txt";
  {
    std::FILE* f = std::fopen(requests.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# no requests\n", f);
    std::fclose(f);
  }
  const std::string merchd = std::string(MERCHD_BIN);
  const struct {
    std::string args;
    std::string flag;
  } cases[] = {
      {"--file " + requests + " --threads abc", "--threads"},
      {"--file " + requests + " --threads -1", "--threads"},
      {"--file " + requests + " --max-conns -1", "--max-conns"},
      {"--router --shards -1", "--shards"},
  };
  for (const auto& c : cases) {
    const std::string out = TestDir() + "/merchd_flags.txt";
    const int rc = RunCommand(merchd + " " + c.args + " > " + out + " 2>&1");
    const std::string text = ReadWholeFile(out);
    EXPECT_EQ(rc, 2) << c.args << ": " << text;
    EXPECT_NE(text.find(c.flag + " must be"), std::string::npos)
        << c.args << ": " << text;
    EXPECT_EQ(text.find("routing"), std::string::npos) << text;
  }
}

TEST(DistributedCli, BatchRowsPrintTheScaleUnrounded) {
  // merchd --file rows mirror `merchctl sweep`, which prints a request's
  // scale unrounded; they used %.3g, so 0.1234567 printed as 0.123 and
  // two distinct scales could print alike.
  const std::string requests = TestDir() + "/fine_scale_requests.txt";
  {
    std::FILE* f = std::fopen(requests.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("app=DMRG policy=pm scale=0.1234567 work=0.02\n", f);
    std::fclose(f);
  }
  const std::string out = TestDir() + "/fine_scale_rows.txt";
  const int rc = RunCommand(std::string(MERCHD_BIN) + " --file " + requests +
                            " > " + out + " 2>&1");
  const std::string text = ReadWholeFile(out);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("scale 0.1234567 seed"), std::string::npos) << text;
}

TEST(DistributedCli, TracedRemoteThroughRouterMergesIntoOneTimeline) {
  const std::string dir = TestDir();
  const std::string port_file = dir + "/router.port";
  const std::string router_trace = dir + "/router.json";
  const std::string client_trace = dir + "/client.json";
  const std::string merged = dir + "/merged.json";
  for (const std::string& stale :
       {port_file, router_trace, router_trace + ".shard0.json",
        router_trace + ".shard1.json", client_trace, merged}) {
    std::remove(stale.c_str());
  }

  // Router with 2 traced shard workers; --trace doubles as the workers'
  // trace prefix.
  const pid_t router = Spawn({MERCHD_BIN, "--router", "--shards", "2",
                              "--port", "0", "--port-file", port_file,
                              "--threads", "1", "--trace", router_trace});
  ASSERT_GT(router, 0);
  ASSERT_TRUE(WaitForFile(port_file)) << "router never published its port";
  const int port = std::atoi(ReadWholeFile(port_file).c_str());
  ASSERT_GT(port, 0);

  // Two traced remote calls (distinct requests, so both shards of the
  // rendezvous hash have a chance to serve).
  for (const char* policy : {"pm", "mo"}) {
    const int rc =
        RunCommand(std::string(MERCHCTL_BIN) + " remote --port " +
            std::to_string(port) + " --app SpGEMM --policy " + policy +
            " --scale 0.01 --work 0.02 --trace " + client_trace +
            " >/dev/null 2>&1");
    if (rc != 0) {
      ::kill(router, SIGKILL);
      FAIL() << "merchctl remote failed with exit " << rc;
    }
  }

  // Graceful stop drains the shards and flushes every trace file.
  ASSERT_EQ(::kill(router, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(router, &status, 0), router);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (const std::string& path :
       {client_trace, router_trace, router_trace + ".shard0.json",
        router_trace + ".shard1.json"}) {
    ASSERT_TRUE(WaitForFile(path, 5000)) << "missing trace export " << path;
  }

  ASSERT_EQ(RunCommand(std::string(TRACE_MERGE_BIN) + " --out " + merged + " " +
                client_trace + " " + router_trace + " " + router_trace +
                ".shard0.json " + router_trace + ".shard1.json" +
                " >/dev/null 2>&1"),
            0);

  const std::string json = ReadWholeFile(merged);
  ASSERT_FALSE(json.empty());
  // Perfetto-loadable: structurally valid, with events from the net,
  // service, and sim layers on one timeline.
  const obs::TraceValidation v = obs::ValidateChromeTrace(json);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.flows, 2u);
  for (const char* cat : {"net", "service", "sim"}) {
    EXPECT_EQ(v.categories.count(cat), 1u) << "no events from " << cat;
  }

  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(json, &doc, &err)) << err;
  std::map<std::uint64_t, std::set<double>> span_pids_by_trace;
  std::map<std::uint64_t, std::set<std::string>> flow_phases_by_trace;
  for (const obs::JsonValue& ev : doc.Find("traceEvents")->items) {
    const obs::JsonValue* ph = ev.Find("ph");
    const obs::JsonValue* pid = ev.Find("pid");
    if (ph == nullptr || !ph->is_string() || pid == nullptr) continue;
    if (ph->str == "X") {
      const obs::JsonValue* args = ev.Find("args");
      const obs::JsonValue* id =
          args != nullptr ? args->Find("trace_id") : nullptr;
      if (id != nullptr && id->is_number() && id->number > 0) {
        span_pids_by_trace[static_cast<std::uint64_t>(id->number)].insert(
            pid->number);
      }
    } else if (ph->str == "s" || ph->str == "t" || ph->str == "f") {
      const obs::JsonValue* id = ev.Find("id");
      ASSERT_TRUE(id != nullptr && id->is_number());
      flow_phases_by_trace[static_cast<std::uint64_t>(id->number)].insert(
          ph->str);
    }
  }

  // The acceptance contract: at least one trace_id whose spans cross the
  // client, the router, and a shard worker (3 distinct pids), with a
  // complete flow chain (start, finish, and — across 3 processes — a
  // middle step) drawn under that same id.
  std::size_t crossing = 0;
  for (const auto& [trace_id, pids] : span_pids_by_trace) {
    if (pids.size() < 3) continue;
    ++crossing;
    const auto flows = flow_phases_by_trace.find(trace_id);
    ASSERT_NE(flows, flow_phases_by_trace.end())
        << "trace " << trace_id << " has no flow arrows";
    EXPECT_EQ(flows->second,
              (std::set<std::string>{"s", "t", "f"}))
        << "trace " << trace_id << " has a broken flow chain";
  }
  EXPECT_GE(crossing, 1u)
      << "no trace_id spans client + router + worker";
}

}  // namespace
}  // namespace merch
