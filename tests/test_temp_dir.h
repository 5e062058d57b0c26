// Per-test scratch directories. Every file a test writes lives in a
// directory unique to the running test — its suite, its name, and the
// process id — so test processes that ctest runs in parallel never share a
// path. The directory is created on first use and removed when the test
// ends, pass or fail.
//
// This is the only place the tests may call temp_directory_path(); CI
// rejects any other caller.

#ifndef FAE_TESTS_TEST_TEMP_DIR_H_
#define FAE_TESTS_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace fae::test {

/// The scratch directory of the test `info` in this process.
inline std::filesystem::path TestTempDir(const ::testing::TestInfo& info) {
  std::string name = std::string("fae_test.") + info.test_suite_name() + "." +
                     info.name() + "." + std::to_string(::getpid());
  // Parameterized suites and tests carry '/' in their names.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return std::filesystem::temp_directory_path() / name;
}

/// Removes the scratch directory of every test as it ends.
class TempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ec;
    std::filesystem::remove_all(TestTempDir(info), ec);
  }
};

inline const bool kTempDirCleanerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new TempDirCleaner);
  return true;
}();

/// Path of `name` inside the running test's scratch directory.
inline std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir = TestTempDir(*info);
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

}  // namespace fae::test

#endif  // FAE_TESTS_TEST_TEMP_DIR_H_
