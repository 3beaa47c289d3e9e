// Strongly-typed dense entity ids.
//
// Files, machines, processes, URLs, domains, signers, CAs, and packers are
// all identified by dense 32-bit ordinals into their respective pools.
// Wrapping them in distinct types prevents the classic "passed a FileId
// where a MachineId was expected" bug at compile time.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace longtail::model {

template <typename Tag>
struct Id {
  using underlying = std::uint32_t;
  static constexpr underlying kInvalidValue =
      std::numeric_limits<underlying>::max();

  underlying value = kInvalidValue;

  constexpr Id() = default;
  explicit constexpr Id(underlying v) noexcept : value(v) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != kInvalidValue;
  }
  [[nodiscard]] constexpr underlying raw() const noexcept { return value; }

  friend constexpr bool operator==(Id, Id) = default;
  friend constexpr auto operator<=>(Id, Id) = default;
};

struct FileTag {};
struct MachineTag {};
struct ProcessTag {};
struct UrlTag {};
struct DomainTag {};
struct SignerTag {};
struct CaTag {};
struct PackerTag {};

using FileId = Id<FileTag>;
using MachineId = Id<MachineTag>;
using ProcessId = Id<ProcessTag>;
using UrlId = Id<UrlTag>;
using DomainId = Id<DomainTag>;
using SignerId = Id<SignerTag>;
using CaId = Id<CaTag>;
using PackerId = Id<PackerTag>;

}  // namespace longtail::model

template <typename Tag>
struct std::hash<longtail::model::Id<Tag>> {
  std::size_t operator()(longtail::model::Id<Tag> id) const noexcept {
    // Fibonacci hashing spreads dense ordinals across buckets.
    return static_cast<std::size_t>(id.raw()) * 0x9E3779B97F4A7C15ULL;
  }
};
