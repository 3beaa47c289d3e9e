// A scratch directory private to one test.
//
// ctest runs every test as its own process, many at once, so a fixed path
// under temp_directory_path() lets one test's remove_all race another's
// writes (and can SIGBUS a test that has the file mapped). `TempDir` names
// its directory by process id, the running test's full name and a
// per-process sequence number, creates it empty, and removes it with
// everything in it when it goes out of scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace longtail::test {

class TempDir {
 public:
  TempDir() : path_(unique_path()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  // The path of `name` inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  static std::filesystem::path unique_path() {
    std::string name = "longtail_" + std::to_string(::getpid());
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += '_';
      name += info->test_suite_name();
      name += '_';
      name += info->name();
    }
    static std::atomic<unsigned> sequence{0};
    name += '_' + std::to_string(sequence++);
    for (char& c : name)
      if (c == '/') c = '_';  // parameterized test names contain '/'
    return std::filesystem::temp_directory_path() / name;
  }

  std::filesystem::path path_;
};

}  // namespace longtail::test
