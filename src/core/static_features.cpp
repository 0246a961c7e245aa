#include "core/static_features.hpp"

#include <cstdint>
#include <iterator>
#include <utility>

namespace dnsbs::core {

namespace {

/// Keyword rules in paper order; within a label the first matching rule
/// wins.  The paper lists "pop" under both home and mail; here it appears
/// only under home (pop = point-of-presence, an access-network term).
/// Under first-match-wins a second "pop" entry in the mail rule would be
/// dead code: the home rule always claims the label first.
constexpr QuerierCategory kRuleCategory[] = {
    QuerierCategory::kHome, QuerierCategory::kMail,     QuerierCategory::kNs,
    QuerierCategory::kFw,   QuerierCategory::kAntispam, QuerierCategory::kWww,
    QuerierCategory::kNtp,
};
constexpr std::size_t kNoRule = std::size(kRuleCategory);

struct Keyword {
  std::string_view text;
  std::uint8_t rule;  ///< index into kRuleCategory
};

/// Component keywords match a label component: the keyword must appear
/// delimited by non-alphabetic characters (digits, '-', '_', start/end).
/// "home1-2-3-4" matches "home"; "chromecast" does not match "home";
/// "mail-ns" matches "mail" and "ns".  Every keyword is alphabetic, so a
/// delimited occurrence is exactly one maximal alphabetic run of the label.
constexpr Keyword kComponentKeywords[] = {
    {"ap", 0},     {"cable", 0},  {"cpe", 0},    {"customer", 0},   {"dsl", 0},
    {"dynamic", 0}, {"fiber", 0}, {"flets", 0},  {"home", 0},       {"host", 0},
    {"ip", 0},     {"net", 0},    {"pool", 0},   {"pop", 0},        {"retail", 0},
    {"user", 0},   {"mail", 1},   {"mx", 1},     {"smtp", 1},       {"post", 1},
    {"correo", 1}, {"poczta", 1}, {"lists", 1},  {"newsletter", 1}, {"zimbra", 1},
    {"mta", 1},    {"imap", 1},   {"cns", 2},    {"dns", 2},        {"ns", 2},
    {"cache", 2},  {"resolv", 2}, {"name", 2},   {"firewall", 3},   {"wall", 3},
    {"fw", 3},     {"ironport", 4}, {"spam", 4}, {"www", 5},        {"ntp", 6},
};

/// "send" is the one prefix keyword (sendmail, sender...): it must start
/// the label, and then counts for the mail rule.
constexpr std::string_view kSendPrefix = "send";
constexpr std::uint8_t kSendRule = 1;

/// Provider suffixes (matched against whole labels, mirroring "suffix of
/// Akamai, Edgecast, ..." — provider names appear as registrable-domain
/// labels).  Consulted only when no keyword rule matches the label.
constexpr std::pair<QuerierCategory, std::string_view> kProviderLabels[] = {
    {QuerierCategory::kCdn, "akamai"},        {QuerierCategory::kCdn, "akamaitech"},
    {QuerierCategory::kCdn, "edgecast"},      {QuerierCategory::kCdn, "cdnetworks"},
    {QuerierCategory::kCdn, "llnw"},          {QuerierCategory::kCdn, "llnwd"},
    {QuerierCategory::kAws, "amazonaws"},     {QuerierCategory::kMs, "azure"},
    {QuerierCategory::kMs, "cloudapp"},       {QuerierCategory::kMs, "microsoft"},
    {QuerierCategory::kGoogle, "google"},     {QuerierCategory::kGoogle, "googlebot"},
    {QuerierCategory::kGoogle, "1e100"},
};

bool is_alpha(char c) noexcept { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

/// The first rule (in paper order) any component of `label` matches, or
/// kNoRule: one pass over the label's maximal alphabetic runs.
std::size_t first_rule(std::string_view label) {
  std::size_t best = label.starts_with(kSendPrefix) ? kSendRule : kNoRule;
  std::size_t i = 0;
  while (i < label.size() && best != 0) {
    if (!is_alpha(label[i])) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < label.size() && is_alpha(label[end])) ++end;
    const std::string_view run = label.substr(i, end - i);
    for (const Keyword& k : kComponentKeywords) {
      if (k.rule < best && k.text == run) best = k.rule;
    }
    i = end;
  }
  return best;
}

std::optional<QuerierCategory> classify_label(std::string_view label) {
  if (const std::size_t rule = first_rule(label); rule != kNoRule) {
    return kRuleCategory[rule];
  }
  for (const auto& [category, provider] : kProviderLabels) {
    if (label == provider) return category;
  }
  return std::nullopt;
}

}  // namespace

QuerierCategory classify_querier_name(const dns::DnsName& name) {
  // Leftmost component is favored: scan labels host-side first and return
  // the first label that matches any rule.
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    if (const auto category = classify_label(name.label(i))) return *category;
  }
  return QuerierCategory::kOther;
}

QuerierCategory classify_querier(const QuerierInfo& info) {
  switch (info.status) {
    case ResolveStatus::kNxDomain: return QuerierCategory::kNxDomain;
    case ResolveStatus::kUnreachable: return QuerierCategory::kUnreach;
    case ResolveStatus::kOk: return classify_querier_name(info.name);
  }
  return QuerierCategory::kOther;
}

std::array<std::string_view, kQuerierCategoryCount> static_feature_names() noexcept {
  std::array<std::string_view, kQuerierCategoryCount> names{};
  for (std::size_t i = 0; i < kQuerierCategoryCount; ++i) {
    names[i] = to_string(static_cast<QuerierCategory>(i));
  }
  return names;
}

}  // namespace dnsbs::core
