// psi_generate's memory guard, driven through the binary: it prints the
// target counts before building, and refuses a graph whose estimated peak
// memory exceeds physical memory without building or writing anything.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Output files are named after the running test: ctest runs each test in
// its own process, possibly at the same time.
RunResult RunGenerate(const std::string& args) {
  const std::string stem =
      ::testing::TempDir() + "psi_generate_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string out = stem + ".out";
  const std::string err = stem + ".err";
  const std::string command = std::string(PSI_GENERATE_BIN) + " " + args +
                              " >" + out + " 2>" + err;
  const int status = std::system(command.c_str());
  RunResult result;
  if (status != -1 && WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  result.out = Slurp(out);
  result.err = Slurp(err);
  return result;
}

TEST(PsiGenerateTest, PrintsTargetCountsBeforeBuilding) {
  const std::string graph = ::testing::TempDir() + "psi_generate_small.lg";
  std::filesystem::remove(graph);
  const RunResult r =
      RunGenerate("--out " + graph + " --generator er --nodes 100 --edges 300");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("Generating 100 nodes, 300 edges"), std::string::npos)
      << r.out;
  EXPECT_LT(r.out.find("Generating"), r.out.find("Wrote")) << r.out;
  EXPECT_TRUE(std::filesystem::exists(graph));
  std::filesystem::remove(graph);
}

TEST(PsiGenerateTest, RefusesAGraphLargerThanPhysicalMemory) {
  const std::string graph = ::testing::TempDir() + "psi_generate_huge.lg";
  std::filesystem::remove(graph);
  const RunResult r = RunGenerate(
      "--out " + graph +
      " --generator er --nodes 1000000000000 --edges 1000000000000000");
  EXPECT_EQ(r.exit_code, 1) << r.err;
  EXPECT_NE(r.out.find("Generating 1000000000000 nodes"), std::string::npos)
      << r.out;
  EXPECT_NE(r.err.find("refusing to build"), std::string::npos) << r.err;
  EXPECT_FALSE(std::filesystem::exists(graph));
}

}  // namespace
