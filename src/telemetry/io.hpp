// Corpus export/import as TSV files.
//
// A directory holds one file per entity table plus the event stream:
//
//   meta.tsv       machine_count
//   signers.tsv    id, name            (same for cas/packers/families)
//   domains.tsv    id, name, alexa_rank, gsb, blacklist, whitelist
//   urls.tsv       id, domain_id, alexa_rank
//   files.tsv      id, sha, size, signed, signer, ca, packed, packer
//   processes.tsv  id, sha, category, browser, signed, signer, ca, packed,
//                  packer
//   events.tsv     file, machine, process, url, time
//
// The format is meant for interchange with external tooling (pandas, R)
// and for persisting generated corpora; verdicts are deliberately not part
// of it — labeling is derived, not data.
#pragma once

#include <string>

#include "telemetry/corpus.hpp"

namespace longtail::telemetry {

// Writes the corpus into `dir` (created if missing). Throws
// std::runtime_error on I/O failure.
void export_corpus(const Corpus& corpus, const std::string& dir);

// Reads a corpus previously written by export_corpus. Throws
// std::runtime_error on missing/malformed files and on an id outside its
// table (require_ids_in_tables).
Corpus import_corpus(const std::string& dir);

}  // namespace longtail::telemetry
