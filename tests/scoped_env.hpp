// Sets (or unsets) one environment variable for the lifetime of a scope
// and restores its previous state afterwards.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace longtail::test {

class ScopedEnv {
 public:
  // `value` == nullptr unsets the variable.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_.has_value())
      ::setenv(name_.c_str(), old_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace longtail::test
