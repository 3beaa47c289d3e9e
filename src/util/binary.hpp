// Minimal binary stream helpers for the sectioned LTDS format
// (telemetry/ltds.cpp, synth/dataset_io.cpp).
//
// Fixed-width little-endian integers, length-prefixed strings, and bulk
// POD-array copies. The format is only written and read on little-endian
// hosts (enforced below), so values are stored in native byte order.
//
// `BinaryWriter` streams a file and keeps an FNV-1a hash over a
// caller-delimited region; `SectionWriter` turns those regions into
// per-section checksums. Readers parse a file image in memory through
// `SpanReader`, after `telemetry::SectionTable` has validated the table
// of contents (see docs/corpus-format.md).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/hash.hpp"

namespace longtail::util {

static_assert(std::endian::native == std::endian::little,
              "binary corpus format assumes a little-endian host");

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p,
                                 std::size_t n) noexcept {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

// Round up to the 8-byte alignment the sectioned (v3) format guarantees
// for every section payload, so integer columns can be read in place
// from the file image.
inline constexpr std::uint64_t align8(std::uint64_t n) noexcept {
  return (n + 7) & ~std::uint64_t{7};
}

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot write " + path);
  }

  void u8(std::uint8_t v) { bytes(&v, sizeof v); }
  void u16(std::uint16_t v) { bytes(&v, sizeof v); }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  template <typename T>
  void pod_array(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(data.size());
    bytes(data.data(), data.size_bytes());
  }

  void bytes(const void* p, std::size_t n) {
    region_hash_ = fnv1a_bytes(region_hash_, p, n);
    tell_ += n;
    out_.write(static_cast<const char*>(p),
               static_cast<std::streamsize>(n));
    if (!out_) throw std::runtime_error("write failed: " + path_);
  }

  // Bytes written so far (the sectioned formats record section offsets).
  [[nodiscard]] std::uint64_t tell() const noexcept { return tell_; }

  // Zero-pads to the next 8-byte boundary (section payload alignment).
  void pad_to_8() {
    static constexpr char kZeros[8] = {};
    const std::uint64_t pad = align8(tell_) - tell_;
    if (pad != 0) bytes(kZeros, static_cast<std::size_t>(pad));
  }

  // FNV-1a hash over a caller-delimited byte region — the sectioned
  // formats use it for per-section checksums.
  void reset_region_hash(std::uint64_t seed = kFnvOffset) noexcept {
    region_hash_ = seed;
  }
  [[nodiscard]] std::uint64_t region_hash() const noexcept {
    return region_hash_;
  }

  void finish() {
    out_.flush();
    if (!out_) throw std::runtime_error("write failed: " + path_);
  }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t region_hash_ = kFnvOffset;
  std::uint64_t tell_ = 0;
};

// Table-of-contents writer for the sectioned (v3) binary formats. The
// caller writes the fixed 16-byte header itself (magic, version, section
// count, reserved) with the writer's region hash freshly reset; each
// section is then bracketed with begin()/end(), and finish() appends the
// section table followed by its checksum. Layout invariants (see
// docs/corpus-format.md): section payloads start 8-aligned and their
// extents are zero-padded to 8 bytes, padding included in the per-section
// checksum, so every byte of the file is covered by exactly one checksum
// region.
class SectionWriter {
 public:
  struct Entry {
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;    // payload start (8-aligned)
    std::uint64_t count = 0;     // element count (0 for opaque streams)
    std::uint64_t length = 0;    // payload bytes, excluding padding
    std::uint64_t checksum = 0;  // FNV-1a over the padded extent
  };
  static constexpr std::size_t kEntryBytes = 40;

  // Snapshot the header hash: the caller has just written the header with
  // region hash reset, so region_hash() here covers exactly those bytes.
  explicit SectionWriter(BinaryWriter& out)
      : out_(out), header_hash_(out.region_hash()) {}

  void begin(std::uint32_t kind, std::uint64_t count) {
    entries_.push_back(Entry{.kind = kind,
                             .offset = out_.tell(),
                             .count = count,
                             .length = 0,
                             .checksum = 0});
    out_.reset_region_hash();
  }

  void end() {
    Entry& e = entries_.back();
    e.length = out_.tell() - e.offset;
    out_.pad_to_8();
    e.checksum = out_.region_hash();
  }

  // Writes the section table and its checksum (FNV-1a over the header
  // bytes followed by the table bytes). Call once, after the last end().
  void finish() {
    out_.reset_region_hash(header_hash_);
    for (const Entry& e : entries_) {
      out_.u32(e.kind);
      out_.u32(0);
      out_.u64(e.offset);
      out_.u64(e.count);
      out_.u64(e.length);
      out_.u64(e.checksum);
    }
    const std::uint64_t table_hash = out_.region_hash();
    out_.u64(table_hash);
  }

 private:
  BinaryWriter& out_;
  std::uint64_t header_hash_;
  std::vector<Entry> entries_;
};

// Cursor over an in-memory byte range — the reader half of the sectioned
// formats, where payloads are parsed out of a file mapping. Same field
// vocabulary as BinaryWriter; every read is bounds-checked against the
// section extent, so a corrupt length field inside a section is a typed
// error, never an out-of-bounds read.
class SpanReader {
 public:
  explicit SpanReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return read_pod<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return read_pod<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return read_pod<std::int64_t>(); }
  [[nodiscard]] double f64() { return read_pod<double>(); }

  [[nodiscard]] std::string str() {
    const std::size_t n = checked_count(u32(), 1);
    std::string s(n, '\0');
    bytes(s.data(), n);
    return s;
  }

  void bytes(void* p, std::size_t n) {
    if (n > remaining())
      throw std::runtime_error("corrupt binary section: truncated field");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  // Borrow `n` elements in place (no copy). The caller owns keeping the
  // underlying image alive for as long as the span is used.
  template <typename T>
  [[nodiscard]] std::span<const T> pod_span(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T))
      throw std::runtime_error("corrupt binary section: truncated array");
    const auto* p = reinterpret_cast<const T*>(data_.data() + pos_);
    assert(reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0);
    pos_ += n * sizeof(T);
    return {p, n};
  }

  // Owning variant, mirroring BinaryWriter::pod_array's shape: u64 count
  // then the raw elements.
  template <typename T>
  [[nodiscard]] std::vector<T> pod_array() {
    const std::size_t n = checked_count(u64(), sizeof(T));
    const auto sp = pod_span<T>(n);
    return {sp.begin(), sp.end()};
  }

  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t elem_size) const {
    if (elem_size != 0 && n > remaining() / elem_size)
      throw std::runtime_error("corrupt binary section: bad count");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t tell() const noexcept { return pos_; }

 private:
  template <typename T>
  [[nodiscard]] T read_pod() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace longtail::util
