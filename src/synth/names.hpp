// Name pools for the synthetic world.
//
// The curated lists are the real names from the paper's tables (signers
// from Tables VIII/IX, domains from Tables III-V/XIII, packers from §IV-C,
// families consistent with Fig. 1). The generators produce plausible
// filler names to reach the scaled pool sizes.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace longtail::synth {

struct CuratedNames {
  // Signers. Shared signers sign both benign files and malware.
  std::vector<std::string> benign_only_signers;
  std::vector<std::string> shared_signers;
  std::vector<std::string> malicious_only_signers;

  // Certification authorities.
  std::vector<std::string> cas;

  // Packers.
  std::vector<std::string> shared_packers;
  std::vector<std::string> benign_packers;
  std::vector<std::string> malicious_packers;

  // Domains by hosting role.
  std::vector<std::string> mixed_hosting_domains;  // softonic.com, ...
  std::vector<std::string> vendor_domains;         // driverupdate.net, ...
  std::vector<std::string> dedicated_domains;      // humipapp.com, C2s, ...
  std::vector<std::string> fakeav_domains;         // 5k-stopadware2014.in, ...
  std::vector<std::string> adware_domains;         // media-watch-app.com, ...
  std::vector<std::string> update_domains;         // collection-whitelisted

  // Malware families (lowercase, alphabetic, length >= 4 — the shape
  // AVclass can extract).
  std::vector<std::string> families;
};

const CuratedNames& curated_names();

// Filler-name generators (deterministic given the Rng state).
std::string synth_company_name(util::Rng& rng);
std::string synth_domain_name(util::Rng& rng);
std::string synth_family_name(util::Rng& rng);
std::string synth_packer_name(util::Rng& rng);

}  // namespace longtail::synth
