#include "synth/names.hpp"

namespace longtail::synth {

const CuratedNames& curated_names() {
  static const CuratedNames names = [] {
    CuratedNames n;

    // Table IX (left) and Table VIII benign rows.
    n.benign_only_signers = {
        "TeamViewer", "Blizzard Entertainment", "Lespeed Technology Ltd.",
        "Hamrick Software", "Dell Inc.", "Google Inc", "NVIDIA Corporation",
        "Softland S.R.L.", "Adobe Systems Incorporated", "Recovery Toolbox",
        "Lenovo Information Products (Shenzhen) Co.",
        "MetaQuotes Software Corp.", "Rare Ideas", "Mozilla Corporation",
        "Microsoft Corporation", "Opera Software ASA", "Apple Inc.",
        "Oracle America Inc.", "VideoLAN", "Piriform Ltd",
    };

    // Table VIII "common with benign" columns.
    n.shared_signers = {
        "Softonic International", "Binstall", "SITE ON SPOT Ltd.",
        "Perion Network Ltd.", "UpdateStar GmbH", "AppWork GmbH", "WorldSetup",
        "BoomeranGO Inc.", "Open Source Developer", "TLAPIA", "Refog Inc.",
        "Video Technology", "Valery Kuzniatsou", "AVG Technologies",
        "BitTorrent Inc.", "Conduit Ltd.", "IObit Information Technology",
        "Bandoo Media Inc.",
    };

    // Tables VIII/IX malicious-exclusive columns, plus the signers named in
    // the paper's example rules (§VI-C, §VII).
    n.malicious_only_signers = {
        "Somoto Ltd.", "ISBRInstaller", "Somoto Israel", "Apps Installer SL",
        "SecureInstall", "Firseria", "Amonetize ltd.", "JumpyApps",
        "ClientConnect LTD", "Media Ingea SL", "RAPIDDOWN", "Sevas-S LLC",
        "Trusted Software Aps", "The Nielsen Company", "Benjamin Delpy",
        "Supersoft", "Flores Corporation",
        "70166A21-2F6A-4CC0-822C-607696D8F4B7",
        "Xi'an Xinli Software Technology Co.", "R-DATA Sp. z o.o.",
        "Mipko OOO", "Ts Security System - Seguranca em Sistemas Ltda",
        "WEBPIC DESENVOLVIMENTO DE SOFTWARE LTDA", "JDI BACKUP LIMITED",
        "Wallinson", "Webcellence Ltd.", "William Richard John",
        "Tuto4PC.com", "Shanghai Gaoxin Computer System Co.", "mail.ru games",
    };

    n.cas = {
        "thawte code signing ca - g2",
        "verisign class 3 code signing 2010 ca",
        "comodo code signing ca 2",
        "digicert assured id code signing ca-1",
        "globalsign codesigning ca - g2",
        "go daddy secure certification authority",
        "startcom class 2 primary intermediate object ca",
        "wosign code signing ca",
        "certum code signing ca",
        "microsoft code signing pca",
    };

    // §IV-C: INNO/UPX/AutoIt shared; Molebox/NSPack/Themida malicious-only.
    // NSIS and ASPack appear in the paper's example rules.
    n.shared_packers = {
        "INNO", "UPX", "AutoIt", "NSIS", "ASPack", "PECompact", "MPRESS",
        "Armadillo", "UPack", "FSG", "7z-SFX", "WinRAR-SFX", "MEW",
        "Petite", "ExePack",
    };
    n.benign_packers = {
        "InstallShield", "WiseInstaller", "MSI-Wrapper", "InstallAware",
        "Squirrel", "ClickOnce",
    };
    n.malicious_packers = {
        "Molebox", "NSPack", "Themida", "VMProtect", "Obsidium",
        "EnigmaProtector", "ExeCryptor", "PELock", "Yoda-Crypter",
        "TeLock",
    };

    // Tables III/IV: file-hosting services serving both benign and
    // malicious files.
    n.mixed_hosting_domains = {
        "softonic.com", "mediafire.com", "4shared.com", "cloudfront.net",
        "amazonaws.com", "soft32.com", "uptodown.com", "baixaki.com.br",
        "softonic.com.br", "softonic.fr", "softonic.jp", "rackcdn.com",
        "cdn77.net", "nzs.com.br", "files-info.com", "naver.net",
        "sharesend.com", "gulfup.com", "hinet.net", "inbox.com",
        "coolrom.com", "gamehouse.com", "ge.tt", "co.vu",
    };
    n.vendor_domains = {
        "driverupdate.net", "arcadefrontier.com", "ziputil.net",
        "filehippo.com", "majorgeeks.com", "snapfiles.com",
    };
    // Tables III/V/XIII: dropper/C2 and social-engineering download sites.
    n.dedicated_domains = {
        "humipapp.com", "bestdownload-manager.com", "freepdf-converter.com",
        "free-fileopener.com", "zilliontoolkitusa.info",
        "d0wnpzivrubajjui.com", "vitkvitk.com", "downloadnuchaik.com",
        "downloadaixeechahgho.com", "wipmsc.ru", "f-best.biz",
    };
    // Table V fakeav column: social engineering in the domain name itself.
    n.fakeav_domains = {
        "5k-stopadware2014.in", "sncpwindefender2014.in",
        "webantiviruspro-fr.pw", "12e-stopadware2014.in",
        "zeroantivirusprojectx.nl", "wmicrodefender27.nl",
        "qwindowsdefender.nl", "alphavirusprotectz.pw", "updatestar.com",
    };
    // Table V adware column: free live-streaming / media-player bait.
    n.adware_domains = {
        "media-watch-app.com", "trustmediaviewer.com", "media-buzz.org",
        "media-view.net", "pinchfist.info", "dl24x7.net",
        "zrich-media-view.com", "vidply.net", "mediaply.net",
        "media-viewer.com",
    };
    // §II-A: software updates of major vendors are not collected.
    n.update_domains = {
        "windowsupdate.com", "update.microsoft.com", "adobeupdate.com",
        "swcdn.apple.com", "dl.google.com",
    };

    // Families: Fig. 1-era PUP/adware installers and classic crimeware.
    // All lowercase-alphabetic, length >= 4, so AVclass can extract them.
    n.families = {
        "firseria",   "somoto",    "installcore", "outbrowse", "amonetize",
        "loadmoney",  "softpulse", "ibryte",      "domaiq",    "dealply",
        "bundlore",   "opencandy", "conduit",     "browsefox", "zbot",
        "upatre",     "zusy",      "vobfus",      "gamarue",   "sality",
        "ramnit",     "virut",     "fosniw",      "hotbar",    "eorezo",
        "crossrider", "webpick",   "linkury",     "speedingupmypc",
        "airinstaller",
    };
    return n;
  }();
  return names;
}

namespace {

const char* const kSyllables[] = {
    "ba", "co", "da", "el", "fi", "go", "ha", "in", "jo", "ka", "lu",
    "ma", "ne", "or", "pa", "qu", "ra", "so", "ta", "ul", "va", "wi",
    "xe", "yo", "za", "bri", "cle", "dro", "fla", "gre",
};
constexpr std::size_t kNumSyllables = std::size(kSyllables);

const char* const kCompanySuffixes[] = {
    " Ltd.", " LLC", " GmbH", " Inc.", " S.L.", " Corp.", " Software",
    " Technologies", " Media", " Solutions", " Apps", " Networks",
};

const char* const kDomainTlds[] = {
    ".com", ".net", ".org", ".info", ".biz", ".ru", ".in", ".pw", ".nl",
    ".com.br",
};

std::string syllable_word(util::Rng& rng, int min_syllables,
                          int max_syllables) {
  const auto count = static_cast<int>(
      rng.uniform_range(min_syllables, max_syllables));
  std::string word;
  for (int i = 0; i < count; ++i)
    word += kSyllables[rng.uniform(kNumSyllables)];
  return word;
}

}  // namespace

std::string synth_company_name(util::Rng& rng) {
  std::string name = syllable_word(rng, 2, 4);
  name[0] = static_cast<char>(name[0] - 'a' + 'A');
  name += kCompanySuffixes[rng.uniform(std::size(kCompanySuffixes))];
  return name;
}

std::string synth_domain_name(util::Rng& rng) {
  std::string name = syllable_word(rng, 2, 4);
  if (rng.bernoulli(0.2)) name += "-" + syllable_word(rng, 1, 2);
  name += kDomainTlds[rng.uniform(std::size(kDomainTlds))];
  return name;
}

std::string synth_family_name(util::Rng& rng) {
  // >= 2 syllables guarantees length >= 4 (AVclass-extractable).
  return syllable_word(rng, 2, 3);
}

std::string synth_packer_name(util::Rng& rng) {
  std::string name = syllable_word(rng, 1, 2);
  name[0] = static_cast<char>(name[0] - 'a' + 'A');
  return name + "Pack";
}

}  // namespace longtail::synth
