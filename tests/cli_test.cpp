// scenario_cli's exit-code contract, driven through the real binary:
//
//   0  run completed (and, with --verify, the oracle passed)
//   2  bad usage or an unbuildable spec
//   3  --verify found violations or could not verify the run
//
// The contract is part of the CLI's documented interface (--help prints it;
// CI scripts and the suite runner branch on it), so each path gets an
// end-to-end process-level test. suite_cli shares the usage half of it. The
// binary paths are injected by CMake via SDMBOX_SCENARIO_CLI_PATH and
// SDMBOX_SUITE_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string out_path(const std::string& name) { return ::testing::TempDir() + name; }

// Run `binary` with `args`, stdout to `capture` (or /dev/null), and return
// the process exit code (-1 when the child did not exit normally).
int run_binary(const std::string& binary, const std::string& args,
               const std::string& capture = {}) {
  std::string cmd = binary + " " + args;
  cmd += " > " + (capture.empty() ? std::string("/dev/null") : capture) + " 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_cli(const std::string& args, const std::string& capture = {}) {
  return run_binary(SDMBOX_SCENARIO_CLI_PATH, args, capture);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliExitCodes, CleanRunExitsZero) {
  EXPECT_EQ(run_cli("--packets 300 --faults none --sim"), 0);
}

TEST(CliExitCodes, HelpPrintsTheContractOnStdoutAndExitsZero) {
  const std::string out = out_path("cli_help.txt");
  EXPECT_EQ(run_cli("--help", out), 0);
  const std::string text = slurp(out);
  // The help text documents every exit code and the span export flag.
  EXPECT_NE(text.find("exit codes"), std::string::npos) << text;
  EXPECT_NE(text.find("2 = bad usage"), std::string::npos);
  EXPECT_NE(text.find("3 = --verify"), std::string::npos);
  EXPECT_NE(text.find("--spans-out"), std::string::npos);
}

TEST(CliExitCodes, BadUsageExitsTwo) {
  EXPECT_EQ(run_cli("--no-such-flag"), 2);
  EXPECT_EQ(run_cli("--packets"), 2);           // missing value
  EXPECT_EQ(run_cli("--packets 0"), 2);         // spec validation failure
  EXPECT_EQ(run_cli("--verify --trace-sample 0"), 2);  // verify needs a stream
  // Numeric flags must parse completely, like their spec-file keys.
  EXPECT_EQ(run_cli("--packets 300x"), 2);
  EXPECT_EQ(run_cli("--seed abc"), 2);
  EXPECT_EQ(run_cli("--trace-sample 0.5junk"), 2);
  EXPECT_EQ(run_cli("--packets 300 --reopt-cooldown +3"), 2);
  // Deleted drift-mode flags are unknown, not silently accepted.
  EXPECT_EQ(run_cli("--packets 300 --reopt-adaptive"), 2);
  EXPECT_EQ(run_cli("--packets 300 --reopt-predictive"), 2);
  EXPECT_EQ(run_cli("--packets 300 --reopt-noise-mult 2"), 2);
}

TEST(CliExitCodes, UnverifiableRunExitsThree) {
  // A sample rate this small traces no flow, so the oracle sees zero records
  // and reports coverage-incomplete: the run cannot claim "verified".
  EXPECT_EQ(run_cli("--verify --trace-sample 1e-9 --packets 200 --faults none"), 3);
}

TEST(CliExitCodes, SpansExportRidesAVerifiedRun) {
  const std::string spans = out_path("cli_spans.json");
  EXPECT_EQ(run_cli("--packets 300 --verify --spans-out " + spans), 0);
  const std::string text = slurp(spans);
  EXPECT_EQ(text.front(), '{');
  // The scripted chaos run's fault episode made it into the export.
  EXPECT_NE(text.find("\"episode:crash\""), std::string::npos);
  EXPECT_NE(text.find("\"detect\""), std::string::npos);
  EXPECT_NE(text.find("\"push\""), std::string::npos);
}

TEST(SuiteCliExitCodes, MalformedNumbersExitTwo) {
  // Each would otherwise run a suite, so keep any output out of the cwd.
  const std::string out = " --out " + out_path("suite_bad.json");
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--jobs abc" + out), 2);
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--seeds 1x" + out), 2);
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--seed -1" + out), 2);
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--jobs 4294967296" + out), 2);
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--seeds 0" + out), 2);
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH, "--jobs"), 2);  // missing value
}

TEST(SuiteCliExitCodes, WellFormedNumbersRun) {
  const std::string spec = out_path("suite_small.spec");
  std::ofstream(spec) << "packets = 300\nfaults = none\n";
  const std::string json = out_path("suite_small.json");
  EXPECT_EQ(run_binary(SDMBOX_SUITE_CLI_PATH,
                       "--jobs 1 --seeds 2 --seed 7 --spec " + spec + " --out " + json),
            0);
  EXPECT_NE(slurp(json).find("\"base_seed\": 7"), std::string::npos);
}

}  // namespace
