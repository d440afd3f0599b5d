#ifndef HERMES_TESTS_TEST_UTIL_H_
#define HERMES_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>  // std::abort, mkdtemp (POSIX)
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"

/// Shared helpers for the test suite: status assertions and per-process
/// scratch space.
///
/// ASSERT_OK/EXPECT_OK accept either a Status or a Result<T> and print
/// the failing expression together with the status code and message —
/// unlike ASSERT_TRUE(x.ok()), which reports only "false". Both support
/// the usual gtest stream suffix: ASSERT_OK(st) << "context";

namespace hermes::test {

inline const Status& ToStatus(const Status& s) { return s; }

template <typename T>
Status ToStatus(const Result<T>& r) {
  return r.status();
}

template <typename T>
::testing::AssertionResult IsOkPredicate(const char* expr_text, const T& v) {
  const Status& st = ToStatus(v);
  if (st.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << expr_text << " returned " << st.ToString();
}

/// This test process's scratch directory: made unique under
/// ::testing::TempDir() on first use (so concurrent test processes, and
/// two checkouts tested on one machine, never share files). It is removed
/// at exit when every test in the process passed; when one failed it is
/// kept and its path is printed, for post-mortem.
inline const std::string& ScratchDir() {
  struct Scratch {
    std::string path;
    Scratch() {
      std::string tmpl = ::testing::TempDir() + "hermes_test_XXXXXX";
      if (mkdtemp(tmpl.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = tmpl;
    }
    ~Scratch() {
      if (::testing::UnitTest::GetInstance()->Passed()) {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
      } else {
        std::fprintf(stderr, "test scratch directory kept: %s\n",
                     path.c_str());
      }
    }
  };
  static const Scratch scratch;
  return scratch.path;
}

/// ScratchDir()/name with nothing there yet: a path for a file (or a
/// directory the code under test creates itself).
inline std::string FreshPath(const std::string& name) {
  const std::string path = ScratchDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

/// FreshPath(name), created as an empty directory.
inline std::string FreshDir(const std::string& name) {
  const std::string dir = FreshPath(name);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace hermes::test

#define ASSERT_OK(expr) \
  ASSERT_PRED_FORMAT1(::hermes::test::IsOkPredicate, (expr))
#define EXPECT_OK(expr) \
  EXPECT_PRED_FORMAT1(::hermes::test::IsOkPredicate, (expr))

#endif  // HERMES_TESTS_TEST_UTIL_H_
