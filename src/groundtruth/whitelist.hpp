// File whitelists (§II-B): the commercial whitelist and NIST's software
// reference library (NSRL). A file that matches either is labeled benign.
//
// The paper notes (§VII) that its whitelist ground truth carries noise —
// 33% of "benign" test samples were downloaded from malicious contexts —
// so the simulator can deliberately whitelist a small number of
// non-benign files to reproduce that effect.
#pragma once

#include "model/ids.hpp"
#include "util/flat_table.hpp"

namespace longtail::groundtruth {

class Whitelist {
 public:
  void add(model::FileId f) { files_.insert(f); }
  void add(model::ProcessId p) { processes_.insert(p); }

  [[nodiscard]] bool contains(model::FileId f) const {
    return files_.contains(f);
  }
  [[nodiscard]] bool contains(model::ProcessId p) const {
    return processes_.contains(p);
  }

  // Enumeration for serialization (synth/dataset_io). Iterates in
  // insertion order — sort before writing anything order-sensitive.
  [[nodiscard]] const util::FlatSet<model::FileId>& files() const noexcept {
    return files_;
  }
  [[nodiscard]] const util::FlatSet<model::ProcessId>& processes()
      const noexcept {
    return processes_;
  }

 private:
  // Probed once per file during verdict annotation and once per admitted
  // event in the labeling passes — hot enough for the flat layout.
  util::FlatSet<model::FileId> files_;
  util::FlatSet<model::ProcessId> processes_;
};

}  // namespace longtail::groundtruth
