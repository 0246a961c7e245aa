#include "sim/naming.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

namespace dnsbs::sim {

namespace {

/// Stable per-(address, salt) hash for all naming decisions.
std::uint64_t splitmix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Picks with hash h a value in [0,n).
std::size_t hpick(std::uint64_t h, std::size_t n) noexcept { return h % n; }

double hfrac(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Pool/desktop hosts: the roles that can lack a PTR record or sit behind
/// a broken reverse delegation.
bool is_pool_host(HostRole role) noexcept {
  return role == HostRole::kHomeHost || role == HostRole::kMobileHost ||
         role == HostRole::kCorpHost || role == HostRole::kServer;
}

/// A reverse name written into a fixed stack buffer.  Every name the model
/// makes is a few fixed words and at most four decimal octets plus an AS or
/// /24 number, far below the buffer; appends clamp at its end regardless.
class NameBuffer {
 public:
  NameBuffer& operator<<(std::string_view text) noexcept {
    const std::size_t n = std::min(text.size(), static_cast<std::size_t>(end() - pos_));
    std::memcpy(pos_, text.data(), n);
    pos_ += n;
    return *this;
  }
  NameBuffer& operator<<(std::uint32_t value) noexcept {
    pos_ = std::to_chars(pos_, end(), value).ptr;
    return *this;
  }
  NameBuffer& operator<<(char) = delete;  // would print as a number

  std::string_view view() const noexcept {
    return {buf_, static_cast<std::size_t>(pos_ - buf_)};
  }

 private:
  char* end() noexcept { return buf_ + sizeof buf_; }

  char buf_[256];
  char* pos_ = buf_;
};

}  // namespace

const char* to_string(HostRole r) noexcept {
  switch (r) {
    case HostRole::kIspResolver: return "isp-resolver";
    case HostRole::kSiteResolver: return "site-resolver";
    case HostRole::kFirewall: return "firewall";
    case HostRole::kMailServer: return "mail-server";
    case HostRole::kAntispam: return "antispam";
    case HostRole::kWebServer: return "web-server";
    case HostRole::kNtpServer: return "ntp-server";
    case HostRole::kHomeHost: return "home-host";
    case HostRole::kMobileHost: return "mobile-host";
    case HostRole::kCorpHost: return "corp-host";
    case HostRole::kServer: return "server";
    case HostRole::kCdnNode: return "cdn-node";
    case HostRole::kCloudAwsNode: return "aws-node";
    case HostRole::kCloudMsNode: return "ms-node";
    case HostRole::kGoogleNode: return "google-node";
    case HostRole::kOpenResolver: return "open-resolver";
  }
  return "?";
}

NamingModel::NamingModel(const AddressPlan& plan, NamingConfig config, std::uint64_t seed)
    : plan_(plan), config_(config), seed_(seed) {}

std::uint64_t NamingModel::mix(net::IPv4Addr addr, std::uint64_t salt) const noexcept {
  return splitmix(seed_ ^ (static_cast<std::uint64_t>(addr.value()) << 13) ^ salt);
}

HostRole NamingModel::role_of(net::IPv4Addr addr) const {
  return role_in(plan_.site_of(addr), addr);
}

HostRole NamingModel::role_in(const Site* site, net::IPv4Addr addr) const noexcept {
  const std::uint32_t host = addr.value() & 0xff;
  if (!site) return HostRole::kServer;

  switch (site->type) {
    case SiteType::kResidential:
      // Hosts 1-2 are the ISP's resolvers for this pool region; the rest
      // are customers.
      if (host <= 2) return HostRole::kIspResolver;
      return HostRole::kHomeHost;

    case SiteType::kMobile:
      if (host <= 2) return HostRole::kIspResolver;
      return HostRole::kMobileHost;

    case SiteType::kCorporate:
      switch (host) {
        case 1: return HostRole::kFirewall;
        case 2: return HostRole::kMailServer;
        case 3: return HostRole::kAntispam;
        case 4: return HostRole::kSiteResolver;
        case 5: return HostRole::kWebServer;
        case 6: return HostRole::kNtpServer;
        default: return HostRole::kCorpHost;
      }

    case SiteType::kUniversity:
      switch (host) {
        case 1: return HostRole::kSiteResolver;
        case 2: return HostRole::kMailServer;
        case 3: return HostRole::kWebServer;
        case 4: return HostRole::kFirewall;
        default: return HostRole::kCorpHost;
      }

    case SiteType::kHosting: {
      // Datacenters are a mix: a resolver and mail relay for the facility,
      // then a stable hash decides each server's tenancy.
      if (host == 1) return HostRole::kSiteResolver;
      if (host == 2) return HostRole::kMailServer;
      const std::uint64_t h = mix(addr, 0x401e);
      const double r = hfrac(h);
      if (r < 0.10) return HostRole::kCdnNode;
      if (r < 0.22) return HostRole::kCloudAwsNode;
      if (r < 0.28) return HostRole::kCloudMsNode;
      if (r < 0.31) return HostRole::kGoogleNode;
      if (r < 0.33) return HostRole::kOpenResolver;
      if (r < 0.45) return HostRole::kWebServer;
      if (r < 0.50) return HostRole::kMailServer;
      return HostRole::kServer;
    }
  }
  return HostRole::kServer;
}

bool NamingModel::has_reverse(net::IPv4Addr addr) const {
  const Site* site = plan_.site_of(addr);
  return has_reverse_in(site, role_in(site, addr), addr);
}

bool NamingModel::has_reverse_in(const Site* site, HostRole role,
                                 net::IPv4Addr addr) const noexcept {
  // Infrastructure is essentially always named; pool/desktop hosts miss
  // reverse names at the configured per-site-type rate.
  if (!is_pool_host(role)) return true;
  const double frac =
      site ? config_.nxdomain_fraction[static_cast<std::size_t>(site->type)] : 0.5;
  return hfrac(mix(addr, 0x9a3e)) >= frac;
}

std::uint32_t NamingModel::ptr_ttl(net::IPv4Addr addr) const {
  static constexpr std::uint32_t kTtls[] = {600, 1200, 3600, 14400, 28800, 86400, 86400};
  const std::uint64_t h = splitmix(seed_ ^ addr.slash24());
  return kTtls[hpick(h, std::size(kTtls))];
}

std::uint32_t NamingModel::negative_ttl(net::IPv4Addr addr) const {
  static constexpr std::uint32_t kTtls[] = {60, 600, 1800, 3600, 10800, 86400};
  const std::uint64_t h = splitmix(seed_ ^ addr.slash24() ^ 0x7e6a);
  return kTtls[hpick(h, std::size(kTtls))];
}

core::QuerierInfo NamingModel::resolve(net::IPv4Addr querier) const {
  core::QuerierInfo info;
  const std::uint64_t h = mix(querier, 0x6a6e);
  const Site* site = plan_.site_of(querier);
  const HostRole role = role_in(site, querier);

  if (!has_reverse_in(site, role, querier)) {
    info.status = core::ResolveStatus::kNxDomain;
    return info;
  }
  // Broken reverse delegations afflict pool/desktop space, not the
  // infrastructure hosts whose operators depend on their reverse names.
  if (is_pool_host(role) && hfrac(splitmix(h ^ 0x12)) < config_.unreach_fraction) {
    info.status = core::ResolveStatus::kUnreachable;
    return info;
  }
  const std::string cc = site ? site->country.to_string() : "com";
  const std::uint32_t asn = site ? site->asn : 0;
  const std::uint32_t a = querier.octet(0), b = querier.octet(1), c = querier.octet(2),
                      d = querier.octet(3);
  const SiteType type = site ? site->type : SiteType::kResidential;  // no site: org domain
  const auto pick = [h](const auto& table) { return table[hpick(h, std::size(table))]; };

  // Operator domains: residential/mobile pools live under the ISP (AS)
  // domain; corporate and university sites have their own.  Only the
  // chosen domain is written.
  NameBuffer name;
  const auto isp_domain = [&] { name << "isp" << asn << "." << cc.c_str(); };
  const auto org_domain = [&] { name << "corp" << querier.slash24() << ".co." << cc.c_str(); };
  const auto univ_domain = [&] { name << "univ" << querier.slash24() << ".ac." << cc.c_str(); };
  const auto dc_domain = [&] { name << "dc" << asn << ".com"; };
  switch (role) {
    case HostRole::kIspResolver: {
      static constexpr const char* kNs[] = {"ns", "dns", "cns", "resolver", "cache"};
      name << pick(kNs) << d << ".";
      isp_domain();
      break;
    }
    case HostRole::kSiteResolver: {
      static constexpr const char* kNs[] = {"ns", "dns", "ns1", "namesrv"};
      name << pick(kNs) << ".";
      if (type == SiteType::kUniversity) {
        univ_domain();
      } else if (type == SiteType::kHosting) {
        dc_domain();
      } else {
        org_domain();
      }
      break;
    }
    case HostRole::kFirewall: {
      static constexpr const char* kFw[] = {"firewall", "fw", "fw1", "gw-wall"};
      name << pick(kFw) << ".";
      org_domain();
      break;
    }
    case HostRole::kMailServer: {
      static constexpr const char* kMail[] = {"mail", "mx", "smtp", "mta", "mail1",
                                              "smtp2", "zimbra", "imap"};
      name << pick(kMail) << ".";
      if (type == SiteType::kHosting) {
        dc_domain();
      } else if (type == SiteType::kUniversity) {
        univ_domain();
      } else {
        org_domain();
      }
      break;
    }
    case HostRole::kAntispam: {
      static constexpr const char* kAs[] = {"ironport", "spam-filter", "spam-gw"};
      name << pick(kAs) << ".";
      org_domain();
      break;
    }
    case HostRole::kWebServer:
      name << "www" << d << ".";
      dc_domain();
      break;
    case HostRole::kNtpServer:
      name << "ntp" << d % 4 << ".";
      org_domain();
      break;
    case HostRole::kHomeHost: {
      static constexpr const char* kHome[] = {"home",   "cpe",  "customer", "dsl",
                                              "dynamic", "pool", "cable",    "fiber",
                                              "user",    "host"};
      name << pick(kHome) << a << "-" << b << "-" << c << "-" << d << ".";
      isp_domain();
      break;
    }
    case HostRole::kMobileHost: {
      static constexpr const char* kMob[] = {"pool", "dynamic", "flets", "ap", "net"};
      name << pick(kMob) << "-" << a << "-" << b << "-" << c << "-" << d << ".mobile.";
      isp_domain();
      break;
    }
    case HostRole::kCorpHost: {
      // Desktop naming is idiosyncratic; most carry no keyword.
      static constexpr const char* kPc[] = {"pc", "desktop", "ws", "lab", "printer"};
      name << pick(kPc) << "-" << d << ".";
      org_domain();
      break;
    }
    case HostRole::kServer: {
      static constexpr const char* kSrv[] = {"srv", "app", "db", "vps", "node"};
      name << pick(kSrv) << c << "-" << d << ".";
      dc_domain();
      break;
    }
    case HostRole::kCdnNode: {
      static constexpr const char* kCdn[] = {"akamai", "akamaitech", "edgecast",
                                             "cdnetworks", "llnwd"};
      name << "a" << c << "-" << d << ".deploy." << pick(kCdn) << ".com";
      break;
    }
    case HostRole::kCloudAwsNode:
      name << "ec2-" << a << "-" << b << "-" << c << "-" << d << ".compute.amazonaws.com";
      break;
    case HostRole::kCloudMsNode:
      name << "vm" << c << "-" << d << ".cloudapp.azure.com";
      break;
    case HostRole::kGoogleNode:
      name << "rate-limited-proxy-" << a << "-" << b << "-" << c << "-" << d << ".google.com";
      break;
    case HostRole::kOpenResolver:
      name << "public" << d << ".google.com";
      break;
  }

  if (auto parsed = dns::DnsName::parse(name.view())) {
    info.status = core::ResolveStatus::kOk;
    info.name = std::move(*parsed);
  } else {
    info.status = core::ResolveStatus::kNxDomain;
  }
  return info;
}

}  // namespace dnsbs::sim
