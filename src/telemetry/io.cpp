#include "telemetry/io.hpp"

#include <charconv>
#include <filesystem>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::telemetry {

namespace {

constexpr char kTab = '\t';

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::runtime_error("corpus import: bad integer '" + s + "'");
  return value;
}

std::int64_t parse_i64(const std::string& s) {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::runtime_error("corpus import: bad integer '" + s + "'");
  return value;
}

util::Digest parse_digest(const std::string& hex) {
  if (hex.size() != 32)
    throw std::runtime_error("corpus import: bad digest '" + hex + "'");
  auto nibble = [](char c) -> std::uint64_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint64_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint64_t>(c - 'a' + 10);
    throw std::runtime_error("corpus import: bad digest nibble");
  };
  util::Digest d;
  for (int i = 0; i < 16; ++i) d.hi = (d.hi << 4) | nibble(hex[i]);
  for (int i = 16; i < 32; ++i) d.lo = (d.lo << 4) | nibble(hex[i]);
  return d;
}

void export_interner(const util::StringInterner& interner,
                     const std::string& path) {
  util::DelimitedWriter out(path, kTab);
  if (!out.ok()) throw std::runtime_error("cannot write " + path);
  out.row("id", "name");
  for (std::uint32_t id = 0; id < interner.size(); ++id)
    out.row(id, interner.at(id));
}

void import_interner(util::StringInterner& interner, const std::string& path) {
  util::DelimitedReader in(path, kTab);
  if (!in.ok()) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> cells;
  in.read_row(cells);  // header
  while (in.read_row(cells)) {
    if (cells.size() != 2)
      throw std::runtime_error("corpus import: bad row in " + path);
    const auto id = interner.intern(cells[1]);
    if (id != parse_u64(cells[0]))
      throw std::runtime_error("corpus import: id mismatch in " + path);
  }
}

std::string opt_id(bool present, std::uint32_t raw) {
  return present ? std::to_string(raw) : std::string("-");
}

std::uint32_t parse_opt_id(const std::string& s, bool present) {
  return present ? static_cast<std::uint32_t>(parse_u64(s))
                 : model::SignerId::kInvalidValue;
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

Corpus import_corpus(const std::string& dir) {
  LONGTAIL_TRACE_SPAN("telemetry.import_corpus");
  Corpus corpus;
  const auto path = [&](const char* name) { return dir + "/" + name; };
  std::vector<std::string> cells;

  {
    util::DelimitedReader in(path("meta.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read meta.tsv");
    in.read_row(cells);
    if (!in.read_row(cells) || cells.empty())
      throw std::runtime_error("corpus import: bad meta.tsv");
    corpus.machine_count = static_cast<std::uint32_t>(parse_u64(cells[0]));
  }

  import_interner(corpus.domain_names, path("domain_names.tsv"));
  import_interner(corpus.signer_names, path("signers.tsv"));
  import_interner(corpus.ca_names, path("cas.tsv"));
  import_interner(corpus.packer_names, path("packers.tsv"));
  import_interner(corpus.family_names, path("families.tsv"));

  {
    util::DelimitedReader in(path("domains.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read domains.tsv");
    in.read_row(cells);
    while (in.read_row(cells)) {
      if (cells.size() != 5)
        throw std::runtime_error("corpus import: bad domains.tsv row");
      model::DomainMeta d;
      d.alexa_rank = static_cast<std::uint32_t>(parse_u64(cells[1]));
      d.on_gsb = cells[2] == "1";
      d.on_private_blacklist = cells[3] == "1";
      d.on_curated_whitelist = cells[4] == "1";
      corpus.domains.push_back(d);
    }
  }
  {
    util::DelimitedReader in(path("urls.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read urls.tsv");
    in.read_row(cells);
    while (in.read_row(cells)) {
      if (cells.size() != 3)
        throw std::runtime_error("corpus import: bad urls.tsv row");
      corpus.urls.push_back(model::UrlMeta{
          model::DomainId{static_cast<std::uint32_t>(parse_u64(cells[1]))},
          static_cast<std::uint32_t>(parse_u64(cells[2]))});
    }
  }
  {
    util::DelimitedReader in(path("files.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read files.tsv");
    in.read_row(cells);
    while (in.read_row(cells)) {
      if (cells.size() != 8)
        throw std::runtime_error("corpus import: bad files.tsv row");
      model::FileMeta f;
      f.sha = parse_digest(cells[1]);
      f.size = parse_u64(cells[2]);
      f.is_signed = cells[3] == "1";
      f.signer = model::SignerId{parse_opt_id(cells[4], f.is_signed)};
      f.ca = model::CaId{parse_opt_id(cells[5], f.is_signed)};
      f.is_packed = cells[6] == "1";
      f.packer = model::PackerId{parse_opt_id(cells[7], f.is_packed)};
      corpus.files.push_back(f);
    }
  }
  import_interner(corpus.process_names, path("process_names.tsv"));
  {
    util::DelimitedReader in(path("processes.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read processes.tsv");
    in.read_row(cells);
    while (in.read_row(cells)) {
      if (cells.size() != 10)
        throw std::runtime_error("corpus import: bad processes.tsv row");
      model::ProcessMeta p;
      p.sha = parse_digest(cells[1]);
      p.name = static_cast<std::uint32_t>(parse_u64(cells[2]));
      p.category =
          static_cast<model::ProcessCategory>(parse_u64(cells[3]));
      p.browser = static_cast<model::BrowserKind>(parse_u64(cells[4]));
      p.is_signed = cells[5] == "1";
      p.signer = model::SignerId{parse_opt_id(cells[6], p.is_signed)};
      p.ca = model::CaId{parse_opt_id(cells[7], p.is_signed)};
      p.is_packed = cells[8] == "1";
      p.packer = model::PackerId{parse_opt_id(cells[9], p.is_packed)};
      corpus.processes.push_back(p);
    }
  }
  {
    util::DelimitedReader in(path("events.tsv"), kTab);
    if (!in.ok()) throw std::runtime_error("cannot read events.tsv");
    in.read_row(cells);
    while (in.read_row(cells)) {
      if (cells.size() != 5)
        throw std::runtime_error("corpus import: bad events.tsv row");
      corpus.events.push_back(model::DownloadEvent{
          model::FileId{static_cast<std::uint32_t>(parse_u64(cells[0]))},
          model::MachineId{static_cast<std::uint32_t>(parse_u64(cells[1]))},
          model::ProcessId{static_cast<std::uint32_t>(parse_u64(cells[2]))},
          model::UrlId{static_cast<std::uint32_t>(parse_u64(cells[3]))},
          parse_i64(cells[4]), true});
    }
  }
  require_ids_in_tables(corpus);
  LONGTAIL_METRIC_COUNT("telemetry.io.events_read", corpus.events.size());
  return corpus;
}

}  // namespace longtail::telemetry
