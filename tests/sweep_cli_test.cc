// End-to-end contract of `merchctl sweep` and `merchctl run`. A sweep's
// pool width (with 4 threads, the batch's instance-first dispatch builds
// distinct apps concurrently and jobs race for each prepared instance)
// must change throughput only, never answers. We exec the real binary each
// way and require the outputs byte-identical after dropping the two
// wall-clock lines ("pass N: ... in X.XXs" and the "service:" stats line,
// whose coalesced/cached counters may legitimately differ). `run` must
// reject what the service rejects (scales above the ceiling included), and
// removed flags must stay errors. Numeric flags parse strictly: a value
// that is not wholly a number, or out of its range, exits 2 naming the
// flag before anything is built, trained or started.
// `run` obtains f as the service does (the built-in artifact at the default
// budget), and `train --out` writes the same artifact every time.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace merch {
namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout only — stderr goes to the test log
};

CmdResult RunCtl(const std::string& args) {
  CmdResult r;
  const std::string cmd = std::string(MERCHCTL_BIN) + " " + args;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// Strips the wall-clock reporting lines so the comparison covers only
// simulation answers (makespans, CoVs, placements).
std::string Answers(const std::string& output) {
  std::istringstream in(output);
  std::string line;
  std::string kept;
  while (std::getline(in, line)) {
    if (line.rfind("pass ", 0) == 0) continue;
    if (line.rfind("service:", 0) == 0) continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST(SweepCli, OneAndFourThreadAnswersAreByteIdentical) {
  const std::string grid =
      "sweep --apps SpGEMM,BFS --policies pm,mo,merch "
      "--scales 0.02,0.05 --work 0.1 --train-regions 6";
  const CmdResult plain = RunCtl(grid + " --threads 1");
  const CmdResult wide = RunCtl(grid + " --threads 4");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(wide.exit_code, 0) << wide.output;

  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(wide.output));
  // Guard the filter itself: real answers must survive it.
  EXPECT_NE(plain_answers.find("makespan"), std::string::npos)
      << plain.output;
}

TEST(SweepCli, FourThreadSweepWithPlacementsPrintsIdenticalPlans) {
  const std::string grid =
      "sweep --apps DMRG --policies pm,mo,merch --scales 0.02 --work 0.1 "
      "--train-regions 6 --seed 5 --placements";
  const CmdResult plain = RunCtl(grid + " --threads 1");
  const CmdResult wide = RunCtl(grid + " --threads 4");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(wide.exit_code, 0) << wide.output;
  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(wide.output));
  EXPECT_NE(plain_answers.find("DRAM"), std::string::npos) << plain.output;
}

TEST(SweepCli, IncrementalSweepWithPlacementsPrintsIdenticalPlans) {
  // WarpX placement plans once compared the removed --incremental path
  // with a plain sweep; the batch dispatch has one path now, so a
  // two-thread sweep must print the plans a one-thread sweep prints.
  const std::string grid =
      "sweep --apps WarpX --policies pm,mo,merch --scales 0.02 --work 0.1 "
      "--train-regions 6 --placements";
  const CmdResult plain = RunCtl(grid + " --threads 1");
  const CmdResult wide = RunCtl(grid + " --threads 2");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(wide.exit_code, 0) << wide.output;
  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(wide.output));
  EXPECT_NE(plain_answers.find("DRAM"), std::string::npos) << plain.output;
}

TEST(SweepCli, AllAppsAndPoliciesAnswerIdenticallyOnOneAndFourThreads) {
  // The acceptance grid: all five apps x all five defined policies, so
  // every app instance goes through the instance-first dispatch order.
  // ("sparta" is undefined for some apps; those ERROR lines must match
  // byte for byte too.)
  const std::string grid =
      "sweep --apps all --policies pm,mm,mo,sparta,merch "
      "--scales 0.02 --work 0.1 --train-regions 6";
  const CmdResult plain = RunCtl(grid + " --threads 1");
  const CmdResult wide = RunCtl(grid + " --threads 4");
  // The sparta ERROR rows make both exits 1; what matters is that the
  // widths agree, line for line.
  EXPECT_EQ(plain.exit_code, wide.exit_code);

  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(wide.output));
  EXPECT_NE(plain_answers.find("makespan"), std::string::npos)
      << plain.output;
  EXPECT_NE(plain_answers.find("ERROR"), std::string::npos) << plain.output;
}

TEST(SweepCli, IncrementalFlagIsUnknown) {
  const CmdResult r = RunCtl(
      "sweep --apps BFS --policies pm --scales 0.02 --work 0.1 "
      "--incremental 2>&1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag '--incremental'"), std::string::npos)
      << r.output;
}

TEST(SweepCli, RunRejectsAnOutOfRangeTrainingBudget) {
  // "-1" parses to SIZE_MAX. `run` must reject the budget with the
  // service's message before training anything, for `all` as for `merch`.
  for (const std::string policy : {"merch", "all"}) {
    const CmdResult r =
        RunCtl("run --app SpGEMM --policy " + policy +
               " --scale 0.01 --work 0.02 --train-regions -1 2>&1");
    EXPECT_EQ(r.exit_code, 2) << policy << ": " << r.output;
    EXPECT_NE(r.output.find("1024"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("training correlation function"),
              std::string::npos)
        << r.output;
  }
}

TEST(SweepCli, ScalesAboveTheCeilingExitTwo) {
  // 1e19 and 1e300 used to print a wrong makespan (an out-of-range cast to
  // uint64_t) and 1e6 std::bad_alloc; every one is refused before anything
  // is built, by `sweep` and `run` alike.
  for (const std::string scale : {"4.01", "1e6", "1e19", "1e300"}) {
    const CmdResult sweep = RunCtl(
        "sweep --apps SpGEMM --policies pm --scales " + scale + " 2>&1");
    EXPECT_EQ(sweep.exit_code, 2) << scale << ": " << sweep.output;
    EXPECT_NE(sweep.output.find("scale must be at most 4"), std::string::npos)
        << sweep.output;
    EXPECT_EQ(sweep.output.find("makespan"), std::string::npos)
        << sweep.output;
    const CmdResult run =
        RunCtl("run --app BFS --policy pm --scale " + scale + " 2>&1");
    EXPECT_EQ(run.exit_code, 2) << scale << ": " << run.output;
    EXPECT_NE(run.output.find("scale must be at most 4"), std::string::npos)
        << run.output;
  }
}

TEST(SweepCli, LoneScaleIsSweptUnrounded) {
  // A --scale given without --scales used to reach the request through
  // std::to_string, which keeps six decimals: 0.1234567 was silently swept
  // at 0.123457, and 1e-7 became 0 and was refused as "scale must be
  // finite and > 0".
  const CmdResult fine =
      RunCtl("sweep --apps DMRG --policies pm --scale 0.1234567 --work 0.02");
  EXPECT_EQ(fine.exit_code, 0) << fine.output;
  EXPECT_NE(fine.output.find("scale 0.1234567 makespan"), std::string::npos)
      << fine.output;
  // 1e-7 reaches the service unrounded. No app fits a machine scaled that
  // far down (every object needs at least one 64 KiB page), so the row is
  // the engine's error, the same answer `run --scale 0.0000001` gives.
  const CmdResult tiny = RunCtl(
      "sweep --apps DMRG --policies pm --scale 0.0000001 --work 0.02 2>&1");
  EXPECT_EQ(tiny.exit_code, 1) << tiny.output;
  EXPECT_EQ(tiny.output.find("scale must be"), std::string::npos)
      << tiny.output;
  EXPECT_NE(tiny.output.find("scale 1e-07   ERROR: object '"),
            std::string::npos)
      << tiny.output;
  EXPECT_NE(tiny.output.find("does not fit the machine's memory"),
            std::string::npos)
      << tiny.output;
  const CmdResult run = RunCtl(
      "run --app DMRG --policy pm --scale 0.0000001 --work 0.02 2>&1");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("does not fit the machine's memory"),
            std::string::npos)
      << run.output;
}

TEST(SweepCli, WorkAboveTheCeilingExitsTwo) {
  // Run time grows linearly with the work (--work 1e6 never finished);
  // 4 is accepted, anything above is refused before anything is built.
  for (const std::string work :
       {"4.000000000000001", "1e6", "1e300"}) {  // nextafter(4) first
    const CmdResult sweep = RunCtl(
        "sweep --apps DMRG --policies pm --scales 0.01 --work " + work +
        " 2>&1");
    EXPECT_EQ(sweep.exit_code, 2) << work << ": " << sweep.output;
    EXPECT_NE(sweep.output.find("work must be at most 4"), std::string::npos)
        << sweep.output;
    EXPECT_EQ(sweep.output.find("makespan"), std::string::npos)
        << sweep.output;
    const CmdResult run =
        RunCtl("run --app DMRG --policy pm --scale 0.01 --work " + work +
               " 2>&1");
    EXPECT_EQ(run.exit_code, 2) << work << ": " << run.output;
    EXPECT_NE(run.output.find("work must be at most 4"), std::string::npos)
        << run.output;
  }
  const CmdResult ceiling =
      RunCtl("run --app DMRG --policy pm --scale 0.005 --work 4 2>&1");
  EXPECT_EQ(ceiling.exit_code, 0) << ceiling.output;
  EXPECT_NE(ceiling.output.find("makespan"), std::string::npos)
      << ceiling.output;
}

TEST(SweepCli, RunRejectsAPolicyTheAppDoesNotDefine) {
  // `run` takes its policies from the service's switch, so it rejects
  // what `sweep` rejects: the service's message on stderr, exit 1, and no
  // makespan.
  const CmdResult r =
      RunCtl("run --app BFS --policy sparta --scale 0.02 --work 0.05 2>&1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("policy 'sparta' is not defined for app BFS"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("makespan"), std::string::npos) << r.output;
}

TEST(SweepCli, RunDecodesTheBuiltinCorrelationFunctionAtTheDefaultBudget) {
  const std::string run =
      "run --app DMRG --policy merch --scale 0.01 --work 0.02";
  const CmdResult builtin = RunCtl(run + " 2>&1");
  EXPECT_EQ(builtin.exit_code, 0) << builtin.output;
  EXPECT_NE(builtin.output.find("correlation function: built-in (281 regions"),
            std::string::npos)
      << builtin.output;
  EXPECT_EQ(builtin.output.find("training correlation function"),
            std::string::npos)
      << builtin.output;
  EXPECT_NE(builtin.output.find("makespan"), std::string::npos);

  const CmdResult trained = RunCtl(run + " --train-regions 6 2>&1");
  EXPECT_EQ(trained.exit_code, 0) << trained.output;
  EXPECT_NE(trained.output.find("training correlation function (6 regions)"),
            std::string::npos)
      << trained.output;
  EXPECT_EQ(trained.output.find("built-in"), std::string::npos)
      << trained.output;
}

TEST(SweepCli, MalformedNumericFlagsExitTwoNamingTheFlag) {
  // Only values that would start nothing even if accepted are probed: a
  // count above its ceiling must never reach a run.
  const std::string merch = "run --app SpGEMM --policy merch --work 0.02 ";
  const struct {
    std::string args;
    std::string flag;
  } cases[] = {
      {merch + "--scale 0.01 --seed abc", "--seed"},
      {merch + "--scale 0.01 --seed 12abc", "--seed"},
      {merch + "--scale 0.02x", "--scale"},
      {merch + "--scale 0.01 --seed -3", "--seed"},
      {merch + "--scale 0.01 --seed 18446744073709551616", "--seed"},
      {"sweep --apps BFS --policies pm --scales 0.01 --threads -1",
       "--threads"},
      {"sweep --apps BFS --policies pm --scales 0.01,0.02x", "--scales"},
      {"remote --port 70000 --ping", "--port"},
  };
  for (const auto& c : cases) {
    const CmdResult r = RunCtl(c.args + " 2>&1");
    EXPECT_EQ(r.exit_code, 2) << c.args << ": " << r.output;
    EXPECT_NE(r.output.find(c.flag + " must be"), std::string::npos)
        << c.args << ": " << r.output;
    // Nothing was built, trained or simulated.
    for (const char* work : {"footprint", "correlation function",
                             "makespan", "pong"}) {
      EXPECT_EQ(r.output.find(work), std::string::npos)
          << c.args << ": " << r.output;
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(SweepCli, TrainWritesTheSameArtifactEveryTime) {
  const std::string dir = testing::TempDir();
  const std::string a = dir + "merchctl_train_a.mcmf";
  const std::string b = dir + "merchctl_train_b.mcmf";
  for (const std::string& out : {a, b}) {
    const CmdResult r = RunCtl("train --train-regions 4 --out " + out);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("test R"), std::string::npos) << r.output;
  }
  const std::string bytes = ReadFile(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == ReadFile(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SweepCli, TrainExitCodes) {
  EXPECT_EQ(RunCtl("train --train-regions 4 --out "
                   "/nonexistent-merchctl-dir/f.mcmf 2>&1")
                .exit_code,
            1);
  EXPECT_EQ(RunCtl("train --train-regions 4 2>&1").exit_code, 2);  // no --out
  EXPECT_EQ(RunCtl("train --train-regions 0 --out x.mcmf 2>&1").exit_code, 2);
  EXPECT_EQ(RunCtl("train --train-regions 1025 --out x.mcmf 2>&1").exit_code,
            2);
}

}  // namespace
}  // namespace merch
