// Corpus export as TSV files, for external tooling (pandas, R).
//
// A directory holds one file per entity table plus the event stream, each
// starting with a header row that names its columns:
//
//   meta.tsv           machine_count
//   domain_names.tsv   id, name   (same for signers, cas, packers,
//                                  families and process_names)
//   domains.tsv        id, alexa_rank, gsb, blacklist, whitelist
//   urls.tsv           id, domain, alexa_rank
//   files.tsv          id, sha, size, signed, signer, ca, packed, packer
//   processes.tsv      id, sha, name, category, browser, signed, signer,
//                      ca, packed, packer
//   events.tsv         file, machine, process, url, time
//
// `domain` indexes domain_names.tsv and a process's `name` indexes
// process_names.tsv. Flags are 0 or 1 and `sha` is 32 lowercase hex
// digits. `signer` and `ca` read `-` for an unsigned file or process, and
// `packer` reads `-` for an unpacked one. Verdicts are deliberately not
// part of the export: labeling is derived, not data. The library reads
// corpora back only from the LTDS dataset file (synth/dataset_io.hpp).
#pragma once

#include <string>

#include "telemetry/corpus.hpp"

namespace longtail::telemetry {

// Writes the corpus into `dir` (created if missing). Throws
// std::runtime_error on I/O failure.
void export_corpus(const Corpus& corpus, const std::string& dir);

}  // namespace longtail::telemetry
