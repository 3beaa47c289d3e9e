#include "telemetry/fingerprint.hpp"

#include "util/hash.hpp"

namespace longtail::telemetry {

namespace {

void mix_interner(util::FnvMixer& mix, const util::StringInterner& interner) {
  mix(interner.size());
  for (std::uint32_t id = 0; id < interner.size(); ++id)
    mix(util::fnv1a64(interner.at(id)));
}

}  // namespace

std::uint64_t corpus_fingerprint(const Corpus& corpus) {
  util::FnvMixer mix;
  const EventStore& ev = corpus.events;
  mix(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) {
    mix(ev.file_column()[i].raw());
    mix(ev.machine_column()[i].raw());
    mix(ev.process_column()[i].raw());
    mix(ev.url_column()[i].raw());
    mix(static_cast<std::uint64_t>(ev.time_column()[i]));
    mix(ev.executed_column()[i]);
  }
  mix(corpus.files.size());
  for (const auto& f : corpus.files) {
    mix(f.sha.hi);
    mix(f.sha.lo);
    mix(f.size);
    mix(f.is_signed ? f.signer.raw() + 1 : 0);
    mix(f.is_signed ? f.ca.raw() + 1 : 0);
    mix(f.is_packed ? f.packer.raw() + 1 : 0);
  }
  mix(corpus.processes.size());
  for (const auto& p : corpus.processes) {
    mix(p.sha.hi);
    mix(p.sha.lo);
    mix(p.name);
    mix(static_cast<std::uint64_t>(p.category));
    mix(static_cast<std::uint64_t>(p.browser));
    mix(p.is_signed ? p.signer.raw() + 1 : 0);
    mix(p.is_signed ? p.ca.raw() + 1 : 0);
    mix(p.is_packed ? p.packer.raw() + 1 : 0);
  }
  mix(corpus.urls.size());
  for (const auto& u : corpus.urls) {
    mix(u.domain.raw());
    mix(u.alexa_rank);
  }
  mix(corpus.domains.size());
  for (const auto& d : corpus.domains) {
    mix(d.alexa_rank);
    mix((d.on_gsb ? 1u : 0u) | (d.on_private_blacklist ? 2u : 0u) |
        (d.on_curated_whitelist ? 4u : 0u));
  }
  mix_interner(mix, corpus.domain_names);
  mix_interner(mix, corpus.signer_names);
  mix_interner(mix, corpus.ca_names);
  mix_interner(mix, corpus.packer_names);
  mix_interner(mix, corpus.family_names);
  mix_interner(mix, corpus.process_names);
  mix(corpus.machine_count);
  return mix.value();
}

}  // namespace longtail::telemetry
