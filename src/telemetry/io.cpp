#include "telemetry/io.hpp"

#include <filesystem>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::telemetry {

namespace {

constexpr char kTab = '\t';

void export_interner(const util::StringInterner& interner,
                     const std::string& path) {
  util::DelimitedWriter out(path, kTab);
  if (!out.ok()) throw std::runtime_error("cannot write " + path);
  out.row("id", "name");
  for (std::uint32_t id = 0; id < interner.size(); ++id)
    out.row(id, interner.at(id));
}

std::string opt_id(bool present, std::uint32_t raw) {
  return present ? std::to_string(raw) : std::string("-");
}

}  // namespace

void export_corpus(const Corpus& corpus, const std::string& dir) {
  LONGTAIL_TRACE_SPAN("telemetry.export_corpus");
  LONGTAIL_METRIC_COUNT("telemetry.io.events_written", corpus.events.size());
  std::filesystem::create_directories(dir);
  const auto path = [&](const char* name) { return dir + "/" + name; };

  {
    util::DelimitedWriter out(path("meta.tsv"), kTab);
    if (!out.ok()) throw std::runtime_error("cannot write meta.tsv");
    out.row("machine_count");
    out.row(corpus.machine_count);
  }

  export_interner(corpus.domain_names, path("domain_names.tsv"));
  export_interner(corpus.signer_names, path("signers.tsv"));
  export_interner(corpus.ca_names, path("cas.tsv"));
  export_interner(corpus.packer_names, path("packers.tsv"));
  export_interner(corpus.family_names, path("families.tsv"));

  {
    util::DelimitedWriter out(path("domains.tsv"), kTab);
    out.row("id", "alexa_rank", "gsb", "blacklist", "whitelist");
    for (std::size_t i = 0; i < corpus.domains.size(); ++i) {
      const auto& d = corpus.domains[i];
      out.row(i, d.alexa_rank, int{d.on_gsb}, int{d.on_private_blacklist},
              int{d.on_curated_whitelist});
    }
  }
  {
    util::DelimitedWriter out(path("urls.tsv"), kTab);
    out.row("id", "domain", "alexa_rank");
    for (std::size_t i = 0; i < corpus.urls.size(); ++i)
      out.row(i, corpus.urls[i].domain.raw(), corpus.urls[i].alexa_rank);
  }
  {
    util::DelimitedWriter out(path("files.tsv"), kTab);
    out.row("id", "sha", "size", "signed", "signer", "ca", "packed",
            "packer");
    for (std::size_t i = 0; i < corpus.files.size(); ++i) {
      const auto& f = corpus.files[i];
      out.row(i, util::to_hex(f.sha), f.size, int{f.is_signed},
              opt_id(f.is_signed, f.signer.raw()),
              opt_id(f.is_signed, f.ca.raw()), int{f.is_packed},
              opt_id(f.is_packed, f.packer.raw()));
    }
  }
  export_interner(corpus.process_names, path("process_names.tsv"));
  {
    util::DelimitedWriter out(path("processes.tsv"), kTab);
    out.row("id", "sha", "name", "category", "browser", "signed", "signer",
            "ca", "packed", "packer");
    for (std::size_t i = 0; i < corpus.processes.size(); ++i) {
      const auto& p = corpus.processes[i];
      out.row(i, util::to_hex(p.sha), p.name,
              static_cast<int>(p.category), static_cast<int>(p.browser),
              int{p.is_signed}, opt_id(p.is_signed, p.signer.raw()),
              opt_id(p.is_signed, p.ca.raw()), int{p.is_packed},
              opt_id(p.is_packed, p.packer.raw()));
    }
  }
  {
    util::DelimitedWriter out(path("events.tsv"), kTab);
    out.row("file", "machine", "process", "url", "time");
    for (const auto& e : corpus.events)
      out.row(e.file().raw(), e.machine().raw(), e.process().raw(),
              e.url().raw(), e.time());
  }
}

}  // namespace longtail::telemetry
