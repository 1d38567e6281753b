#ifndef RDFA_TESTS_TEST_PATHS_H_
#define RDFA_TESTS_TEST_PATHS_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace rdfa::test {

/// A scratch path private to the running test: TempDir() plus the pid, the
/// current test's full name and `tag`. ctest -j runs every test in its own
/// process, so fixed names would let one process truncate a snapshot
/// another has mapped (SIGBUS) or read another's half-written file.
inline std::string UniqueTempPath(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." +
                               info->name();
  // Parameterized names ("Seeds/FuzzTest.Case/3") must not add directories.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "rdfa_" + std::to_string(::getpid()) + "_" +
         name + "_" + tag;
}

}  // namespace rdfa::test

#endif  // RDFA_TESTS_TEST_PATHS_H_
