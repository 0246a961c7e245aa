// Reference oracles for the cold feature-extraction front end: querier
// site lookup and naming, reverse-name parsing and keyword classification.
//
// The library builds each querier's reverse name straight into a stack
// buffer, parses it without temporaries and classifies it in one pass over
// the label's alphabetic runs.  The straightforward implementations those
// replaced live here as references — util::format candidate domains, a
// util::split parse with a lowercase copy per label, and a
// component_match scan per keyword in first-rule order — and every test
// asserts the library agrees with them exactly.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/static_features.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "net/prefix_trie.hpp"
#include "sim/naming.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dnsbs {
namespace {

using core::QuerierCategory;
using core::QuerierInfo;
using core::ResolveStatus;
using dns::DnsName;
using net::IPv4Addr;
using sim::HostRole;

// ---------------------------------------------------------------------------
// Reference DnsName::parse: split on '.', reject bad labels, lowercase copy.

std::optional<DnsName> reference_parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;
  std::vector<std::string> labels;
  std::size_t wire = 1;
  for (const auto piece : util::split(text, '.')) {
    if (piece.empty() || piece.size() > 63) return std::nullopt;
    for (const char c : piece) {
      const unsigned char u = static_cast<unsigned char>(c);
      if (!(std::isalnum(u) || c == '-' || c == '_')) return std::nullopt;
    }
    wire += 1 + piece.size();
    if (wire > 255) return std::nullopt;
    labels.push_back(util::to_lower(piece));
  }
  return DnsName::from_labels(std::move(labels));
}

// ---------------------------------------------------------------------------
// Reference classifier: per-keyword component_match in paper rule order.

struct ReferenceRule {
  QuerierCategory category;
  std::vector<std::string_view> keywords;
};

const std::vector<ReferenceRule>& reference_rules() {
  static const std::vector<ReferenceRule> kRules = {
      {QuerierCategory::kHome,
       {"ap", "cable", "cpe", "customer", "dsl", "dynamic", "fiber", "flets", "home", "host",
        "ip", "net", "pool", "pop", "retail", "user"}},
      {QuerierCategory::kMail,
       {"mail", "mx", "smtp", "post", "correo", "poczta", "send", "lists", "newsletter",
        "zimbra", "mta", "imap"}},
      {QuerierCategory::kNs, {"cns", "dns", "ns", "cache", "resolv", "name"}},
      {QuerierCategory::kFw, {"firewall", "wall", "fw"}},
      {QuerierCategory::kAntispam, {"ironport", "spam"}},
      {QuerierCategory::kWww, {"www"}},
      {QuerierCategory::kNtp, {"ntp"}},
  };
  return kRules;
}

const std::vector<std::pair<QuerierCategory, std::string_view>>& reference_providers() {
  static const std::vector<std::pair<QuerierCategory, std::string_view>> kProviders = {
      {QuerierCategory::kCdn, "akamai"},    {QuerierCategory::kCdn, "akamaitech"},
      {QuerierCategory::kCdn, "edgecast"},  {QuerierCategory::kCdn, "cdnetworks"},
      {QuerierCategory::kCdn, "llnw"},      {QuerierCategory::kCdn, "llnwd"},
      {QuerierCategory::kAws, "amazonaws"}, {QuerierCategory::kMs, "azure"},
      {QuerierCategory::kMs, "cloudapp"},   {QuerierCategory::kMs, "microsoft"},
      {QuerierCategory::kGoogle, "google"}, {QuerierCategory::kGoogle, "googlebot"},
      {QuerierCategory::kGoogle, "1e100"},
  };
  return kProviders;
}

bool component_match(std::string_view label, std::string_view keyword) {
  std::size_t pos = 0;
  while ((pos = label.find(keyword, pos)) != std::string_view::npos) {
    const bool left_ok =
        pos == 0 || !(std::isalpha(static_cast<unsigned char>(label[pos - 1])));
    const std::size_t end = pos + keyword.size();
    const bool right_ok =
        end == label.size() || !(std::isalpha(static_cast<unsigned char>(label[end])));
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

std::optional<QuerierCategory> reference_classify_label(std::string_view label) {
  for (const auto& rule : reference_rules()) {
    for (const auto keyword : rule.keywords) {
      const bool hit = keyword == "send" ? util::starts_with(label, keyword)
                                         : component_match(label, keyword);
      if (hit) return rule.category;
    }
  }
  for (const auto& [category, provider] : reference_providers()) {
    if (label == provider) return category;
  }
  return std::nullopt;
}

QuerierCategory reference_classify_name(const DnsName& name) {
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    if (const auto category = reference_classify_label(name.label(i))) return *category;
  }
  return QuerierCategory::kOther;
}

QuerierCategory reference_classify(const QuerierInfo& info) {
  switch (info.status) {
    case ResolveStatus::kNxDomain: return QuerierCategory::kNxDomain;
    case ResolveStatus::kUnreachable: return QuerierCategory::kUnreach;
    case ResolveStatus::kOk: return reference_classify_name(info.name);
  }
  return QuerierCategory::kOther;
}

// ---------------------------------------------------------------------------
// Reference NamingModel::resolve: build every candidate operator domain with
// util::format, then format the role's name and parse it.

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double hfrac(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

QuerierInfo reference_resolve(const sim::NamingModel& model, const sim::NamingConfig& config,
                              std::uint64_t seed, IPv4Addr querier) {
  QuerierInfo info;
  const std::uint64_t h =
      splitmix(seed ^ (static_cast<std::uint64_t>(querier.value()) << 13) ^ 0x6a6e);
  if (!model.has_reverse(querier)) {
    info.status = ResolveStatus::kNxDomain;
    return info;
  }
  const sim::Site* site = model.plan().site_of(querier);
  const HostRole role = model.role_of(querier);
  const bool pool_host = role == HostRole::kHomeHost || role == HostRole::kMobileHost ||
                         role == HostRole::kCorpHost || role == HostRole::kServer;
  if (pool_host && hfrac(splitmix(h ^ 0x12)) < config.unreach_fraction) {
    info.status = ResolveStatus::kUnreachable;
    return info;
  }
  const std::string cc = site ? site->country.to_string() : "com";
  const std::uint32_t asn = site ? site->asn : 0;
  const std::uint32_t a = querier.octet(0), b = querier.octet(1), c = querier.octet(2),
                      d = querier.octet(3);
  const std::string isp = util::format("isp%u.%s", asn, cc.c_str());
  const std::string org = util::format("corp%u.co.%s", querier.slash24(), cc.c_str());
  const std::string univ = util::format("univ%u.ac.%s", querier.slash24(), cc.c_str());
  const std::string dc = util::format("dc%u.com", asn);
  const auto pick = [h](const auto& table) { return table[h % std::size(table)]; };
  const bool is_univ = site && site->type == sim::SiteType::kUniversity;
  const bool is_dc = site && site->type == sim::SiteType::kHosting;

  std::string name;
  switch (role) {
    case HostRole::kIspResolver: {
      static constexpr const char* kNs[] = {"ns", "dns", "cns", "resolver", "cache"};
      name = util::format("%s%u.%s", pick(kNs), d, isp.c_str());
      break;
    }
    case HostRole::kSiteResolver: {
      static constexpr const char* kNs[] = {"ns", "dns", "ns1", "namesrv"};
      const std::string& dom = is_univ ? univ : is_dc ? dc : org;
      name = util::format("%s.%s", pick(kNs), dom.c_str());
      break;
    }
    case HostRole::kFirewall: {
      static constexpr const char* kFw[] = {"firewall", "fw", "fw1", "gw-wall"};
      name = util::format("%s.%s", pick(kFw), org.c_str());
      break;
    }
    case HostRole::kMailServer: {
      static constexpr const char* kMail[] = {"mail", "mx",    "smtp",   "mta",
                                              "mail1", "smtp2", "zimbra", "imap"};
      const std::string& dom = is_dc ? dc : is_univ ? univ : org;
      name = util::format("%s.%s", pick(kMail), dom.c_str());
      break;
    }
    case HostRole::kAntispam: {
      static constexpr const char* kAs[] = {"ironport", "spam-filter", "spam-gw"};
      name = util::format("%s.%s", pick(kAs), org.c_str());
      break;
    }
    case HostRole::kWebServer: name = util::format("www%u.%s", d, dc.c_str()); break;
    case HostRole::kNtpServer: name = util::format("ntp%u.%s", d % 4, org.c_str()); break;
    case HostRole::kHomeHost: {
      static constexpr const char* kHome[] = {"home", "cpe",  "customer", "dsl",  "dynamic",
                                              "pool", "cable", "fiber",   "user", "host"};
      name = util::format("%s%u-%u-%u-%u.%s", pick(kHome), a, b, c, d, isp.c_str());
      break;
    }
    case HostRole::kMobileHost: {
      static constexpr const char* kMob[] = {"pool", "dynamic", "flets", "ap", "net"};
      name = util::format("%s-%u-%u-%u-%u.mobile.%s", pick(kMob), a, b, c, d, isp.c_str());
      break;
    }
    case HostRole::kCorpHost: {
      static constexpr const char* kPc[] = {"pc", "desktop", "ws", "lab", "printer"};
      name = util::format("%s-%u.%s", pick(kPc), d, org.c_str());
      break;
    }
    case HostRole::kServer: {
      static constexpr const char* kSrv[] = {"srv", "app", "db", "vps", "node"};
      name = util::format("%s%u-%u.%s", pick(kSrv), c, d, dc.c_str());
      break;
    }
    case HostRole::kCdnNode: {
      static constexpr const char* kCdn[] = {"akamai", "akamaitech", "edgecast", "cdnetworks",
                                             "llnwd"};
      name = util::format("a%u-%u.deploy.%s.com", c, d, pick(kCdn));
      break;
    }
    case HostRole::kCloudAwsNode:
      name = util::format("ec2-%u-%u-%u-%u.compute.amazonaws.com", a, b, c, d);
      break;
    case HostRole::kCloudMsNode: name = util::format("vm%u-%u.cloudapp.azure.com", c, d); break;
    case HostRole::kGoogleNode:
      name = util::format("rate-limited-proxy-%u-%u-%u-%u.google.com", a, b, c, d);
      break;
    case HostRole::kOpenResolver: name = util::format("public%u.google.com", d); break;
  }
  if (auto parsed = reference_parse(name)) {
    info.status = ResolveStatus::kOk;
    info.name = std::move(*parsed);
  } else {
    info.status = ResolveStatus::kNxDomain;
  }
  return info;
}

// ---------------------------------------------------------------------------

/// Asserts the library and the references agree on one address: identical
/// QuerierInfo, and identical categories from both classifiers.  Returns
/// the library's category.
QuerierCategory expect_matches_reference(const sim::NamingModel& model,
                                         const sim::NamingConfig& config, std::uint64_t seed,
                                         IPv4Addr addr) {
  const QuerierInfo got = model.resolve(addr);
  const QuerierInfo want = reference_resolve(model, config, seed, addr);
  const QuerierCategory category = core::classify_querier(got);
  EXPECT_EQ(got.status, want.status) << addr.to_string();
  EXPECT_EQ(got.name, want.name) << addr.to_string() << ": " << got.name.to_string()
                                 << " vs " << want.name.to_string();
  EXPECT_EQ(category, reference_classify(want))
      << addr.to_string() << ": " << got.name.to_string();
  return category;
}

/// Reference site lookup: longest-prefix match over every site's /24.
class ReferenceSites {
 public:
  explicit ReferenceSites(const sim::AddressPlan& plan) : plan_(plan) {
    for (std::size_t i = 0; i < plan.sites().size(); ++i) trie_.insert(plan.sites()[i].prefix, i);
  }
  const sim::Site* site_of(IPv4Addr addr) const {
    const std::size_t* idx = trie_.lookup(addr);
    return idx ? &plan_.sites()[*idx] : nullptr;
  }

 private:
  const sim::AddressPlan& plan_;
  net::PrefixTrie<std::size_t> trie_;
};

struct World {
  std::uint64_t seed;
  sim::AddressPlanConfig plan_config;
  sim::NamingConfig naming_config;
};

std::vector<World> oracle_worlds() {
  World small{42, {}, {}};
  small.plan_config.total_slash8 = 48;
  small.plan_config.sites = 1500;
  // A second world with a different seed, site mix and naming rates, so
  // every role and both failure statuses occur under other hashes.
  World skewed{7, {}, {}};
  skewed.plan_config.total_slash8 = 32;
  skewed.plan_config.sites = 1200;
  skewed.plan_config.site_mix = {0.2, 0.3, 0.3, 0.1, 0.1};
  skewed.naming_config.nxdomain_fraction = {0.5, 0.05, 0.3, 0.0, 0.9};
  skewed.naming_config.unreach_fraction = 0.2;
  return {small, skewed};
}

TEST(NamingOracle, EveryAddressOfEverySiteMatchesReference) {
  for (const World& world : oracle_worlds()) {
    const sim::AddressPlan plan = sim::AddressPlan::generate(world.plan_config, world.seed);
    const sim::NamingModel model(plan, world.naming_config, world.seed);
    const ReferenceSites sites(plan);
    std::array<std::size_t, core::kQuerierCategoryCount> seen{};
    for (const sim::Site& site : plan.sites()) {
      for (std::uint64_t host = 0; host < 256; ++host) {
        const IPv4Addr addr = site.prefix.at(host);
        EXPECT_EQ(plan.site_of(addr), sites.site_of(addr)) << addr.to_string();
        const QuerierCategory category =
            expect_matches_reference(model, world.naming_config, world.seed, addr);
        if (::testing::Test::HasFailure()) return;
        ++seen[static_cast<std::size_t>(category)];
      }
    }
    // The walk reaches every category the naming model can produce.
    for (const QuerierCategory c :
         {QuerierCategory::kHome, QuerierCategory::kMail, QuerierCategory::kNs,
          QuerierCategory::kFw, QuerierCategory::kAntispam, QuerierCategory::kWww,
          QuerierCategory::kNtp, QuerierCategory::kCdn, QuerierCategory::kAws,
          QuerierCategory::kMs, QuerierCategory::kGoogle, QuerierCategory::kUnreach,
          QuerierCategory::kNxDomain, QuerierCategory::kOther}) {
      EXPECT_GT(seen[static_cast<std::size_t>(c)], 0u)
          << core::to_string(c) << " seed=" << world.seed;
    }
  }
}

TEST(NamingOracle, StrideOverIpv4SpaceMatchesReference) {
  // Mostly unallocated space: exercises the no-site path (".com" operator
  // domains under AS 0) alongside whatever sites the stride lands in, and
  // the plan's exact-/24 site index against a longest-prefix-match trie.
  for (const World& world : oracle_worlds()) {
    const sim::AddressPlan plan = sim::AddressPlan::generate(world.plan_config, world.seed);
    const sim::NamingModel model(plan, world.naming_config, world.seed);
    const ReferenceSites sites(plan);
    for (std::uint64_t v = 0; v <= 0xffffffffULL; v += 40009) {
      const IPv4Addr addr(static_cast<std::uint32_t>(v));
      EXPECT_EQ(plan.site_of(addr), sites.site_of(addr)) << addr.to_string();
      expect_matches_reference(model, world.naming_config, world.seed, addr);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// The library's classification of `labels`, reached both through
/// DnsName::from_labels and through a wire encode/decode round trip.
void expect_classifies_like_reference(const std::vector<std::string>& labels) {
  const DnsName direct = DnsName::from_labels(labels);
  const QuerierCategory want = reference_classify_name(direct);
  EXPECT_EQ(core::classify_querier_name(direct), want) << direct.to_string();

  dns::Message msg;
  msg.questions.push_back(dns::Question{.name = direct, .qtype = dns::QType::kPTR});
  const auto wire = dns::try_encode(msg);
  ASSERT_TRUE(wire) << direct.to_string();
  const auto decoded = dns::decode(*wire);
  ASSERT_TRUE(decoded) << direct.to_string();
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, direct);
  EXPECT_EQ(core::classify_querier_name(decoded->questions[0].name), want)
      << direct.to_string();
}

TEST(ClassifierOracle, AdversarialLabels) {
  const std::string long_label = "mail" + std::string(55, '7') + "home";  // 63 bytes
  ASSERT_EQ(long_label.size(), 63u);
  const std::vector<std::string> labels = {
      "chromecast", "sendmail", "mail-ns",   "ns-mail",    "1e100",     "a_b",
      "mail_ns",    "12345",    "0",         long_label,   "MAIL",      "HoMe1-2-3-4",
      "SendMail",   "mail\xe9", "\xc3\xa9home", "ns\x80mx", "\xff",     "sendmx",
      "xsend",      "send",     "senders",   "wallfw",     "fw-wall",   "ntp-www",
      "www-ntp",    "spam",     "ironport",  "firewall",   "nsmail",    "apnet",
      "pool1",      "llnw",     "llnwd",     "google",     "GOOGLE",    "googlebot",
      "amazonaws",  "akamai-1", "cloudapp",  "microsoft",  "azure",     "cdnetworks",
      "edgecast",   "akamaitech", "resolver", "resolv",    "namesrv",   "name-srv",
      "gw-wall",    "spam-filter", "ec2",     "a",          "_",         "-",
  };
  for (const auto& label : labels) {
    expect_classifies_like_reference({label, "example", "com"});
    expect_classifies_like_reference({label});
  }
  // Spot values the references fix, so the oracle itself stays honest.
  const auto classify = [](std::string label) {
    return core::classify_querier_name(DnsName::from_labels({std::move(label), "net"}));
  };
  EXPECT_EQ(classify("chromecast"), QuerierCategory::kHome);  // falls through to "net"
  EXPECT_EQ(classify("sendmail"), QuerierCategory::kMail);
  EXPECT_EQ(classify("mail-ns"), QuerierCategory::kMail);
  EXPECT_EQ(classify("ns-fw"), QuerierCategory::kNs);
  EXPECT_EQ(classify("\xc3\xa9home"), QuerierCategory::kHome);
  EXPECT_EQ(core::classify_querier_name(DnsName::from_labels({"1e100"})),
            QuerierCategory::kGoogle);
  EXPECT_EQ(core::classify_querier_name(DnsName::from_labels({"chromecast"})),
            QuerierCategory::kOther);
}

TEST(ClassifierOracle, RandomLabelsFromKeywordFragments) {
  // Labels glued from keywords, keyword fragments and delimiters: most
  // runs are near-misses of a keyword, the shape that separates a run
  // match from a substring match.
  static const std::vector<std::string> kPieces = {
      "mail", "ma", "il", "ns", "n",  "s",    "home", "ho",  "me",  "send", "se", "nd",
      "www",  "w",  "ntp", "fw", "f", "wall", "spam", "pop", "ap",  "ip",   "net", "x",
      "-",    "_",  "0",  "9",  "1e100", "google", "MAIL", "Ns", "\xe9", "\x80", "akamai",
      "dns",  "cns", "user", "imap", "mx", "resolv", "name", "cache", "post", "lists"};
  util::Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::string> labels;
    const std::size_t nlabels = 1 + rng.below(3);
    for (std::size_t l = 0; l < nlabels; ++l) {
      std::string label;
      const std::size_t pieces = 1 + rng.below(5);
      for (std::size_t p = 0; p < pieces; ++p) label += kPieces[rng.below(kPieces.size())];
      labels.push_back(label.substr(0, 63));
    }
    expect_classifies_like_reference(labels);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// DnsName::parse edge cases, pinned against the split-based reference.

void expect_parse_like_reference(std::string_view text) {
  const auto got = DnsName::parse(text);
  const auto want = reference_parse(text);
  ASSERT_EQ(got.has_value(), want.has_value()) << '"' << text << '"';
  if (got) {
    EXPECT_EQ(*got, *want) << text;
  }
}

TEST(DnsNameParse, EdgeCases) {
  const std::string l63(63, 'a'), l64(64, 'a');
  // 253 text bytes is 255 wire octets (length bytes replace the dots, plus
  // the leading length byte and the root byte).
  const std::string max_name = l63 + '.' + l63 + '.' + l63 + '.' + std::string(61, 'b');
  ASSERT_EQ(max_name.size(), 253u);

  EXPECT_TRUE(DnsName::parse(".")->is_root());
  EXPECT_EQ(DnsName::parse("example.com.")->to_string(), "example.com");
  EXPECT_FALSE(DnsName::parse(""));
  EXPECT_FALSE(DnsName::parse(".."));
  EXPECT_FALSE(DnsName::parse(".com"));
  EXPECT_FALSE(DnsName::parse("a..com"));
  EXPECT_FALSE(DnsName::parse("example.com.."));
  EXPECT_TRUE(DnsName::parse(l63 + ".com"));
  EXPECT_FALSE(DnsName::parse(l64 + ".com"));
  EXPECT_FALSE(DnsName::parse("com." + l64));
  EXPECT_EQ(DnsName::parse(max_name)->wire_length(), 255u);
  EXPECT_TRUE(DnsName::parse(max_name + "."));
  EXPECT_FALSE(DnsName::parse(max_name + "b"));
  for (const char* bad : {"a b.com", "a*.com", "a/b", "a@b", "a\tb", "mail\xe9.com", "a,b", "a+b"}) {
    EXPECT_FALSE(DnsName::parse(bad)) << bad;
  }
  EXPECT_FALSE(DnsName::parse(std::string_view("a\0b", 3)));
  const auto upper = DnsName::parse("MAIL.Example.COM");
  ASSERT_TRUE(upper);
  EXPECT_EQ(upper->label(0), "mail");
  EXPECT_EQ(upper->to_string(), "mail.example.com");
  EXPECT_EQ(*DnsName::parse("A-b_C.D"), *DnsName::parse("a-b_c.d"));

  for (const std::string& text :
       {std::string("."), std::string("example.com."), std::string(""), std::string(".."),
        std::string("a..b"), l63 + ".com", l64 + ".com", max_name, max_name + ".",
        max_name + "b", std::string("MAIL.Example.COM"), std::string("mail\xe9.com")}) {
    expect_parse_like_reference(text);
  }
}

TEST(DnsNameParse, RandomTextMatchesReference) {
  static constexpr char kAlphabet[] = {'a', 'Z', '0', '-', '_', '.', '.', ' ', '\xe9', 'm'};
  util::Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    // Mostly short names; some long runs to reach the 63/255 limits.
    const std::size_t len = rng.below(4) == 0 ? 240 + rng.below(30) : rng.below(24);
    std::string text;
    for (std::size_t k = 0; k < len; ++k) {
      const bool long_run = len > 200;
      text.push_back(long_run && rng.below(40) != 0 ? 'q'
                                                    : kAlphabet[rng.below(sizeof kAlphabet)]);
    }
    expect_parse_like_reference(text);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DnsNameParse, WireDecodeLowercasesInPlace) {
  // Names reach the wire codec un-normalized through from_labels; decode
  // must hand back the same lowercase labels parse would.
  const DnsName mixed = DnsName::from_labels({"MaIl", "EXAMPLE", "Com"});
  EXPECT_EQ(mixed.to_string(), "mail.example.com");
  dns::Message msg;
  msg.questions.push_back(dns::Question{.name = mixed, .qtype = dns::QType::kPTR});
  const auto decoded = dns::decode(dns::encode(msg));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->questions[0].name, *DnsName::parse("mail.example.com"));
  // Non-ASCII bytes pass through decode untouched (only A-Z fold).
  const DnsName raw = DnsName::from_labels({"\xc3\x89T\xe9", "jp"});
  EXPECT_EQ(raw.label(0), "\xc3\x89t\xe9");
}

}  // namespace
}  // namespace dnsbs
