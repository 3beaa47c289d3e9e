#include "telemetry/ltds.hpp"

#include <stdexcept>
#include <string>

#include "telemetry/fingerprint.hpp"
#include "util/binary.hpp"

namespace longtail::telemetry {

namespace {

// Columns are written and read as raw element arrays; the id wrappers
// must be layout-identical to their underlying integers for that.
static_assert(sizeof(model::FileId) == sizeof(std::uint32_t));
static_assert(sizeof(model::MachineId) == sizeof(std::uint32_t));
static_assert(sizeof(model::ProcessId) == sizeof(std::uint32_t));
static_assert(sizeof(model::UrlId) == sizeof(std::uint32_t));
static_assert(sizeof(model::Timestamp) == sizeof(std::int64_t));

constexpr std::size_t kHeaderBytes = 16;

void write_interner_section(util::SectionWriter& sections,
                            util::BinaryWriter& out, SectionKind kind,
                            const util::StringInterner& interner) {
  sections.begin(static_cast<std::uint32_t>(kind), interner.size());
  std::uint64_t blob_len = 0;
  for (std::uint32_t id = 0; id < interner.size(); ++id)
    blob_len += interner.at(id).size();
  out.u64(blob_len);
  std::uint32_t off = 0;
  for (std::uint32_t id = 0; id < interner.size(); ++id) {
    out.u32(off);
    off += static_cast<std::uint32_t>(interner.at(id).size());
  }
  out.u32(off);
  for (std::uint32_t id = 0; id < interner.size(); ++id) {
    const std::string_view s = interner.at(id);
    out.bytes(s.data(), s.size());
  }
  sections.end();
}

void release_section(const ReleaseFn& release, const SectionEntry& e) {
  release(static_cast<std::size_t>(e.offset),
          static_cast<std::size_t>(util::align8(e.length)));
}

template <typename T>
std::span<const T> slice_column(std::span<const std::uint8_t> image,
                                const SectionTable& table, SectionKind kind) {
  const SectionEntry& e = table.require(kind);
  if (e.length != e.count * sizeof(T))
    throw std::runtime_error(
        "corrupt binary section: event column length mismatch");
  util::SpanReader reader(table.payload(image, e));
  return reader.pod_span<T>(static_cast<std::size_t>(e.count));
}

// Per-section parsers: each checks its count against the payload length
// and throws a typed error on malformed data.
std::vector<model::FileMeta> parse_files(std::span<const std::uint8_t> payload,
                                         std::uint64_t count) {
  util::SpanReader in(payload);
  std::vector<model::FileMeta> files(in.checked_count(count, 37));
  for (auto& f : files) {
    f.sha.hi = in.u64();
    f.sha.lo = in.u64();
    f.size = in.u64();
    const std::uint8_t flags = in.u8();
    f.is_signed = (flags & 1) != 0;
    f.is_packed = (flags & 2) != 0;
    f.signer = model::SignerId{in.u32()};
    f.ca = model::CaId{in.u32()};
    f.packer = model::PackerId{in.u32()};
  }
  return files;
}

std::vector<model::ProcessMeta> parse_processes(
    std::span<const std::uint8_t> payload, std::uint64_t count) {
  util::SpanReader in(payload);
  std::vector<model::ProcessMeta> processes(in.checked_count(count, 35));
  for (auto& p : processes) {
    p.sha.hi = in.u64();
    p.sha.lo = in.u64();
    p.name = in.u32();
    p.category = static_cast<model::ProcessCategory>(in.u8());
    p.browser = static_cast<model::BrowserKind>(in.u8());
    const std::uint8_t flags = in.u8();
    p.is_signed = (flags & 1) != 0;
    p.is_packed = (flags & 2) != 0;
    p.signer = model::SignerId{in.u32()};
    p.ca = model::CaId{in.u32()};
    p.packer = model::PackerId{in.u32()};
  }
  return processes;
}

std::vector<model::UrlMeta> parse_urls(std::span<const std::uint8_t> payload,
                                       std::uint64_t count) {
  util::SpanReader in(payload);
  std::vector<model::UrlMeta> urls(in.checked_count(count, 8));
  for (auto& u : urls) {
    u.domain = model::DomainId{in.u32()};
    u.alexa_rank = in.u32();
  }
  return urls;
}

std::vector<model::DomainMeta> parse_domains(
    std::span<const std::uint8_t> payload, std::uint64_t count) {
  util::SpanReader in(payload);
  std::vector<model::DomainMeta> domains(in.checked_count(count, 5));
  for (auto& d : domains) {
    d.alexa_rank = in.u32();
    const std::uint8_t flags = in.u8();
    d.on_gsb = (flags & 1) != 0;
    d.on_private_blacklist = (flags & 2) != 0;
    d.on_curated_whitelist = (flags & 4) != 0;
  }
  return domains;
}

void parse_interner(std::span<const std::uint8_t> payload, std::uint64_t count,
                    util::StringInterner& interner) {
  util::SpanReader in(payload);
  const std::uint64_t blob_len = in.u64();
  const std::size_t n = in.checked_count(count, sizeof(std::uint32_t));
  const auto offsets = in.pod_span<std::uint32_t>(n + 1);
  if (offsets.back() != blob_len || blob_len != in.remaining())
    throw std::runtime_error("corrupt binary section: interner blob length");
  const auto* blob =
      reinterpret_cast<const char*>(payload.data() + in.tell());
  interner.attach_pool(offsets,
                       std::string_view(blob, static_cast<std::size_t>(
                                                  blob_len)));
}

// The six event columns as spans into the image. Lengths are
// cross-checked; alignment is guaranteed by the writer.
struct ColumnSlices {
  std::span<const model::FileId> file;
  std::span<const model::MachineId> machine;
  std::span<const model::ProcessId> process;
  std::span<const model::UrlId> url;
  std::span<const model::Timestamp> time;
  std::span<const std::uint8_t> executed;
};

ColumnSlices column_slices(std::span<const std::uint8_t> image,
                           const SectionTable& table) {
  ColumnSlices s;
  s.file = slice_column<model::FileId>(image, table, SectionKind::kEventFile);
  s.machine = slice_column<model::MachineId>(image, table,
                                             SectionKind::kEventMachine);
  s.process = slice_column<model::ProcessId>(image, table,
                                             SectionKind::kEventProcess);
  s.url = slice_column<model::UrlId>(image, table, SectionKind::kEventUrl);
  s.time = slice_column<model::Timestamp>(image, table,
                                          SectionKind::kEventTime);
  s.executed = slice_column<std::uint8_t>(image, table,
                                          SectionKind::kEventExecuted);
  if (s.machine.size() != s.file.size() || s.process.size() != s.file.size() ||
      s.url.size() != s.file.size() || s.time.size() != s.file.size() ||
      s.executed.size() != s.file.size())
    throw std::runtime_error("corrupt binary file: column length mismatch");
  return s;
}

}  // namespace

// ---- SectionTable ------------------------------------------------------

SectionTable::SectionTable(std::span<const std::uint8_t> image,
                           std::uint32_t magic, std::uint32_t version,
                           const std::string& path)
    : path_(path) {
  if (image.size() < kHeaderBytes + sizeof(std::uint64_t))
    throw std::runtime_error("truncated binary file: " + path);
  util::SpanReader header(image.first(kHeaderBytes));
  if (header.u32() != magic)
    throw std::runtime_error("not a sectioned binary (bad magic): " + path);
  const std::uint32_t stored_version = header.u32();
  if (stored_version != version)
    throw std::runtime_error("unsupported binary version " +
                             std::to_string(stored_version) + ": " + path);
  const std::uint32_t n_sections = header.u32();
  if (n_sections == 0 || n_sections > kMaxSections)
    throw std::runtime_error("corrupt binary file (bad section count): " +
                             path);

  const std::uint64_t table_bytes =
      std::uint64_t{n_sections} * util::SectionWriter::kEntryBytes;
  if (image.size() < kHeaderBytes + table_bytes + sizeof(std::uint64_t))
    throw std::runtime_error("truncated binary file: " + path);
  const std::size_t table_start =
      image.size() - sizeof(std::uint64_t) - table_bytes;

  // Header + table are covered by the trailing table checksum; verify it
  // before trusting any entry field.
  std::uint64_t h = util::fnv1a_bytes(util::kFnvOffset, image.data(),
                                      kHeaderBytes);
  h = util::fnv1a_bytes(h, image.data() + table_start, table_bytes);
  std::uint64_t stored_hash = 0;
  util::SpanReader tail(image.subspan(table_start + table_bytes));
  stored_hash = tail.u64();
  if (h != stored_hash)
    throw std::runtime_error("binary section table checksum mismatch: " +
                             path);

  util::SpanReader reader(
      image.subspan(table_start, static_cast<std::size_t>(table_bytes)));
  entries_.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    SectionEntry e;
    e.kind = reader.u32();
    (void)reader.u32();  // reserved
    e.offset = reader.u64();
    e.count = reader.u64();
    e.length = reader.u64();
    e.checksum = reader.u64();
    if (e.offset < kHeaderBytes || e.offset % 8 != 0 ||
        e.offset > table_start ||
        util::align8(e.length) > table_start - e.offset)
      throw std::runtime_error("corrupt binary file (bad section extent): " +
                               path);
    entries_.push_back(e);
  }
}

const SectionEntry& SectionTable::require(SectionKind kind) const {
  for (const SectionEntry& e : entries_)
    if (e.kind == static_cast<std::uint32_t>(kind)) return e;
  throw std::runtime_error("corrupt binary file (missing section " +
                           std::to_string(static_cast<std::uint32_t>(kind)) +
                           "): " + path_);
}

void SectionTable::verify_section(std::span<const std::uint8_t> image,
                                  const SectionEntry& e) const {
  const std::uint64_t h =
      util::fnv1a_bytes(util::kFnvOffset, image.data() + e.offset,
                        static_cast<std::size_t>(util::align8(e.length)));
  if (h != e.checksum)
    throw std::runtime_error("binary section checksum mismatch (section " +
                             std::to_string(e.kind) + "): " + path_);
}

void SectionTable::consume(std::span<const std::uint8_t> image,
                           SectionKind kind, const ReleaseFn& release,
                           const SectionParseFn& parse) const {
  const SectionEntry& e = require(kind);
  verify_section(image, e);
  parse(payload(image, e), e.count);
  release_section(release, e);
}

// ---- shared v3 corpus codec -------------------------------------------

void write_corpus_sections(util::SectionWriter& sections,
                           util::BinaryWriter& out, const Corpus& corpus) {
  sections.begin(static_cast<std::uint32_t>(SectionKind::kMeta), 0);
  out.u64(corpus_fingerprint(corpus));
  out.u32(corpus.machine_count);
  out.u32(0);
  sections.end();

  const EventStore& ev = corpus.events;
  const auto column = [&](SectionKind kind, auto span) {
    sections.begin(static_cast<std::uint32_t>(kind), span.size());
    out.bytes(span.data(), span.size_bytes());
    sections.end();
  };
  column(SectionKind::kEventFile, ev.file_column());
  column(SectionKind::kEventMachine, ev.machine_column());
  column(SectionKind::kEventProcess, ev.process_column());
  column(SectionKind::kEventUrl, ev.url_column());
  column(SectionKind::kEventTime, ev.time_column());
  column(SectionKind::kEventExecuted, ev.executed_column());

  sections.begin(static_cast<std::uint32_t>(SectionKind::kFiles),
                 corpus.files.size());
  for (const auto& f : corpus.files) {
    out.u64(f.sha.hi);
    out.u64(f.sha.lo);
    out.u64(f.size);
    out.u8(static_cast<std::uint8_t>((f.is_signed ? 1 : 0) |
                                     (f.is_packed ? 2 : 0)));
    out.u32(f.signer.raw());
    out.u32(f.ca.raw());
    out.u32(f.packer.raw());
  }
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kProcesses),
                 corpus.processes.size());
  for (const auto& p : corpus.processes) {
    out.u64(p.sha.hi);
    out.u64(p.sha.lo);
    out.u32(p.name);
    out.u8(static_cast<std::uint8_t>(p.category));
    out.u8(static_cast<std::uint8_t>(p.browser));
    out.u8(static_cast<std::uint8_t>((p.is_signed ? 1 : 0) |
                                     (p.is_packed ? 2 : 0)));
    out.u32(p.signer.raw());
    out.u32(p.ca.raw());
    out.u32(p.packer.raw());
  }
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kUrls),
                 corpus.urls.size());
  for (const auto& u : corpus.urls) {
    out.u32(u.domain.raw());
    out.u32(u.alexa_rank);
  }
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kDomains),
                 corpus.domains.size());
  for (const auto& d : corpus.domains) {
    out.u32(d.alexa_rank);
    out.u8(static_cast<std::uint8_t>((d.on_gsb ? 1 : 0) |
                                     (d.on_private_blacklist ? 2 : 0) |
                                     (d.on_curated_whitelist ? 4 : 0)));
  }
  sections.end();

  write_interner_section(sections, out, SectionKind::kStrDomain,
                         corpus.domain_names);
  write_interner_section(sections, out, SectionKind::kStrSigner,
                         corpus.signer_names);
  write_interner_section(sections, out, SectionKind::kStrCa, corpus.ca_names);
  write_interner_section(sections, out, SectionKind::kStrPacker,
                         corpus.packer_names);
  write_interner_section(sections, out, SectionKind::kStrFamily,
                         corpus.family_names);
  write_interner_section(sections, out, SectionKind::kStrProcName,
                         corpus.process_names);
}

CorpusMeta parse_meta(std::span<const std::uint8_t> payload) {
  util::SpanReader in(payload);
  CorpusMeta meta;
  meta.fingerprint = in.u64();
  meta.machine_count = in.u32();
  (void)in.u32();  // reserved
  return meta;
}

Corpus parse_corpus_sections(std::span<const std::uint8_t> image,
                             const SectionTable& table,
                             const ReleaseFn& release) {
  Corpus corpus;
  table.consume(image, SectionKind::kMeta, release,
                [&](auto payload, std::uint64_t) {
                  corpus.machine_count = parse_meta(payload).machine_count;
                });

  // Every column is verified before any is copied, so damaged event data
  // never reaches the store.
  constexpr SectionKind kColumns[] = {
      SectionKind::kEventFile,    SectionKind::kEventMachine,
      SectionKind::kEventProcess, SectionKind::kEventUrl,
      SectionKind::kEventTime,    SectionKind::kEventExecuted};
  const ColumnSlices cols = column_slices(image, table);
  for (const SectionKind kind : kColumns)
    table.verify_section(image, table.require(kind));
  corpus.events = EventStore::from_columns(
      {cols.file.begin(), cols.file.end()},
      {cols.machine.begin(), cols.machine.end()},
      {cols.process.begin(), cols.process.end()},
      {cols.url.begin(), cols.url.end()},
      {cols.time.begin(), cols.time.end()},
      {cols.executed.begin(), cols.executed.end()});
  for (const SectionKind kind : kColumns)
    release_section(release, table.require(kind));

  table.consume(image, SectionKind::kFiles, release,
                [&](auto payload, std::uint64_t count) {
                  corpus.files = parse_files(payload, count);
                });
  table.consume(image, SectionKind::kProcesses, release,
                [&](auto payload, std::uint64_t count) {
                  corpus.processes = parse_processes(payload, count);
                });
  table.consume(image, SectionKind::kUrls, release,
                [&](auto payload, std::uint64_t count) {
                  corpus.urls = parse_urls(payload, count);
                });
  table.consume(image, SectionKind::kDomains, release,
                [&](auto payload, std::uint64_t count) {
                  corpus.domains = parse_domains(payload, count);
                });

  const auto interner = [&](SectionKind kind, util::StringInterner& out) {
    table.consume(image, kind, release, [&](auto payload, std::uint64_t count) {
      parse_interner(payload, count, out);
    });
  };
  interner(SectionKind::kStrDomain, corpus.domain_names);
  interner(SectionKind::kStrSigner, corpus.signer_names);
  interner(SectionKind::kStrCa, corpus.ca_names);
  interner(SectionKind::kStrPacker, corpus.packer_names);
  interner(SectionKind::kStrFamily, corpus.family_names);
  interner(SectionKind::kStrProcName, corpus.process_names);
  return corpus;
}

}  // namespace longtail::telemetry
