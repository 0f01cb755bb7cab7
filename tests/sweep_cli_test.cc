// End-to-end contract of `merchctl sweep`: how a sweep is submitted —
// pool width (with 4 threads, jobs race for one prepared app instance),
// --incremental delta simulation, or its MERCH_CKPT=0 fallback — must
// change throughput only, never answers. We exec the real binary each way
// and require the outputs byte-identical after dropping the two
// wall-clock lines ("pass N: ... in X.XXs" and the "service:" stats line,
// whose coalesced/cached/app-build counters legitimately differ between
// submission paths).
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace merch {
namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout only — stderr goes to the test log
};

CmdResult RunCtl(const std::string& args, const std::string& env = "") {
  CmdResult r;
  const std::string cmd = (env.empty() ? "" : "env " + env + " ") +
                          std::string(MERCHCTL_BIN) + " " + args;
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

TEST(SweepCli, IncrementalAnswersAreByteIdenticalAcrossAllAppsAndPolicies) {
  // The acceptance grid: all five apps x all five defined policies. The
  // incremental path shares one engine per (app, cache-mode) ladder and
  // forks on divergence, so this exercises every fork/converge path the
  // real sweep hits. ("sparta" is undefined for some apps; those ERROR
  // lines must match byte-for-byte too.)
  const std::string grid =
      "sweep --apps all --policies pm,mm,mo,sparta,merch "
      "--scales 0.02 --work 0.1 --train-regions 6 --threads 2";
  const CmdResult plain = RunCtl(grid);
  const CmdResult incremental = RunCtl(grid + " --incremental");
  // The sparta ERROR rows make both exits 1; what matters is that the
  // paths agree, line for line.
  EXPECT_EQ(plain.exit_code, incremental.exit_code);

  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(incremental.output));
  EXPECT_NE(plain_answers.find("makespan"), std::string::npos)
      << plain.output;
  EXPECT_NE(plain_answers.find("ERROR"), std::string::npos) << plain.output;
}

TEST(SweepCli, IncrementalSweepWithPlacementsPrintsIdenticalPlans) {
  const std::string grid =
      "sweep --apps WarpX --policies pm,mo,merch --scales 0.02 --work 0.1 "
      "--train-regions 6 --threads 2 --placements";
  const CmdResult plain = RunCtl(grid);
  const CmdResult incremental = RunCtl(grid + " --incremental");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(incremental.exit_code, 0) << incremental.output;
  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(incremental.output));
  EXPECT_NE(plain_answers.find("DRAM"), std::string::npos) << plain.output;
}

TEST(SweepCli, CkptHatchMatchesAPlainSweep) {
  // MERCH_CKPT=0 must make --incremental answer exactly like a plain
  // per-request sweep.
  const std::string grid =
      "sweep --apps BFS --policies pm,mo --scales 0.02 --work 0.1 "
      "--threads 1";
  const CmdResult plain = RunCtl(grid);
  const CmdResult off = RunCtl(grid + " --incremental", "MERCH_CKPT=0");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(off.exit_code, 0) << off.output;
  const std::string plain_answers = Answers(plain.output);
  EXPECT_EQ(plain_answers, Answers(off.output));
  EXPECT_NE(plain_answers.find("makespan"), std::string::npos)
      << plain.output;
}

}  // namespace
}  // namespace merch
