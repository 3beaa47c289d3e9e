#include "avclass/avclass.hpp"

#include <array>
#include <cstdint>
#include <cstring>

namespace longtail::avclass {

namespace {

// Generic tokens: platform names, behaviour-type keywords, heuristic
// markers — anything that is not a family name. Mirrors AVclass's
// default generic-token list, trimmed to the grammars in this corpus.
constexpr std::array<std::string_view, 54> kGenericTokens = {
    "adware",     "agent",    "application", "artemis",   "autorun",
    "backdoor",   "banker",   "behaveslike", "bundler",   "crypt",
    "dangerousobject", "dloadr", "downloader", "dynamer",  "fakealert",
    "fakeav",     "generic",  "graftor",     "heur",      "heuristic",
    "infostealer","keylog",   "kryptik",     "malware",   "multi",
    "notavirus",  "packed",   "program",     "ransom",    "riskware",
    "rogue",      "softwarebundler", "spyware", "suspicious", "trojan",
    "trojandownloader", "trojanspy", "unsafe", "unwanted", "variant",
    "virus",      "webtoolbar", "win32",     "win64",     "worm",
    "xpack",      "gen",      "troj",        "tspy",      "bkdr",
    "dldr",       "pua",      "pup",         "pws",
};

// Family aliases (different vendors, same family).
struct Alias {
  std::string_view from;
  std::string_view to;
};
constexpr std::array<Alias, 6> kAliases = {{
    {"zeus", "zbot"},
    {"zeusbot", "zbot"},
    {"kazy", "cerber"},
    {"swizzor", "obfuscated"},
    {"installerex", "webpick"},
    {"multiplug", "plugin"},
}};

// AVclass keeps alphabetic tokens of length >= 4; shorter tokens and
// tokens containing digits are variant suffixes / hex tags.
constexpr std::size_t kMinTokenLength = 4;

// Byte classes for the tokenizer. Bytes are classified as ASCII, which is
// what <cctype> does in the C locale the library runs in: bytes >= 0x80
// separate tokens.
enum ByteClass : std::uint8_t { kSeparator = 0, kLetter = 1, kDigit = 2 };
constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[c] = table[c - 'a' + 'A'] = kLetter;
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit;
  return table;
}();

// The generic tokens and the alias sources in one open-addressing table,
// so a candidate token costs one hash and usually one compare.
class Lexicon {
 public:
  struct Entry {
    std::string_view token;  // empty: free slot
    std::string_view alias;  // empty: a generic token, which is dropped
  };

  Lexicon() {
    // Generic tokens shorter than a candidate can never match one.
    for (const auto token : kGenericTokens)
      if (token.size() >= kMinTokenLength) insert({token, {}});
    for (const auto& a : kAliases) insert({a.from, a.to});
  }

  // The entry for `token`, or nullptr when it is an ordinary token.
  [[nodiscard]] const Entry* find(std::string_view token) const {
    for (std::size_t i = slot_of(token);; i = (i + 1) & (kSlots - 1)) {
      const Entry& e = slots_[i];
      if (e.token.empty()) return nullptr;
      if (e.token == token) return &e;
    }
  }

 private:
  // A power of two, at least twice the entry count, so probe runs stay
  // short and always reach a free slot.
  static constexpr std::size_t kSlots = 256;
  static_assert(kSlots >= 2 * (kGenericTokens.size() + kAliases.size()));

  // Mixes the first and the last four bytes with the length; every key
  // and every candidate token has at least four bytes.
  static std::size_t slot_of(std::string_view token) {
    static_assert(kMinTokenLength >= 4);
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::memcpy(&head, token.data(), 4);
    std::memcpy(&tail, token.data() + token.size() - 4, 4);
    const std::uint32_t h = (head * 0x9E3779B1u) ^ (tail * 0x85EBCA77u) ^
                            static_cast<std::uint32_t>(token.size());
    return (h >> 24) & (kSlots - 1);
  }

  void insert(Entry entry) {
    std::size_t i = slot_of(entry.token);
    while (!slots_[i].token.empty()) i = (i + 1) & (kSlots - 1);
    slots_[i] = entry;
  }

  std::array<Entry, kSlots> slots_{};
};

const Lexicon& lexicon() {
  static const Lexicon instance;
  return instance;
}

// The AVclass tokenizer, in one pass over the label bytes. A token is a
// maximal run of ASCII letters and digits. Calls `emit(token)` for every
// candidate, in label order: a run of at least kMinTokenLength letters
// and no digit, lowercased, not generic, alias resolved. `token` is valid
// only for the duration of the call.
template <typename Emit>
void for_each_candidate(std::string_view label, Emit&& emit) {
  // Most tokens fit the stack buffer; longer ones lowercase into `heap`.
  constexpr std::size_t kSmall = 32;
  std::array<char, kSmall> small;
  std::string heap;
  const std::size_t n = label.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t start = i;
    bool has_digit = false;
    for (; i < n; ++i) {
      const auto cls = kByteClass[static_cast<unsigned char>(label[i])];
      if (cls == kSeparator) break;
      has_digit |= cls == kDigit;
    }
    const std::size_t size = i - start;
    ++i;  // the separator
    if (has_digit || size < kMinTokenLength) continue;

    char* lower = small.data();
    if (size > kSmall) {
      heap.resize(size);
      lower = heap.data();
    }
    for (std::size_t j = 0; j < size; ++j)
      lower[j] = static_cast<char>(label[start + j] | 0x20);
    const std::string_view token(lower, size);
    const Lexicon::Entry* entry = lexicon().find(token);
    if (entry == nullptr)
      emit(token);
    else if (!entry->alias.empty())
      emit(entry->alias);
  }
}

}  // namespace

std::vector<std::string> FamilyExtractor::candidate_tokens(
    std::string_view label) {
  std::vector<std::string> out;
  for_each_candidate(label,
                     [&](std::string_view token) { out.emplace_back(token); });
  return out;
}

FamilyResult FamilyExtractor::derive(
    const groundtruth::VtReport& report) const {
  // The report's distinct tokens, their bytes back to back in `arena`.
  // `last` is the detection that last voted for the token, so each engine
  // votes at most once per token.
  struct Vote {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    int count = 0;
    std::size_t last = 0;
  };
  std::string arena;
  std::vector<Vote> votes;
  const auto text = [&](const Vote& v) {
    return std::string_view(arena).substr(v.offset, v.size);
  };
  for (std::size_t d = 0; d < report.detections.size(); ++d) {
    for_each_candidate(report.detections[d].label, [&](std::string_view t) {
      for (auto& v : votes) {
        if (text(v) != t) continue;
        if (v.last != d) {
          v.last = d;
          ++v.count;
        }
        return;
      }
      votes.push_back({static_cast<std::uint32_t>(arena.size()),
                       static_cast<std::uint32_t>(t.size()), 1, d});
      arena.append(t);
    });
  }

  // Plurality: the most engines, ties to the smallest token.
  const Vote* best = nullptr;
  for (const auto& v : votes)
    if (best == nullptr || v.count > best->count ||
        (v.count == best->count && text(v) < text(*best)))
      best = &v;
  if (best == nullptr || best->count < min_support_) return {};
  return {std::string(text(*best)), best->count};
}

}  // namespace longtail::avclass
