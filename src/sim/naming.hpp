// Deterministic reverse-DNS naming for the synthetic Internet.
//
// Every simulated host has a stable identity derived from its address:
// a role inside its /24 site (firewall, mail server, resolver, home host,
// ...) and a reverse name following the conventions the paper's static
// features key on (home1-2-3-4.isp.example, mail.corp.example,
// ns1.isp.example, ec2-*.amazonaws.com, ...).  A configurable fraction of
// hosts have no reverse name (NXDOMAIN) or an unreachable reverse
// authority, matching the paper's observation of 14-19% nameless queriers.
//
// NamingModel implements core::QuerierResolver, so the sensor's feature
// extractor consumes it exactly as a live deployment would consume real
// reverse lookups.
#pragma once

#include <cstdint>

#include "core/static_features.hpp"
#include "sim/address_plan.hpp"

namespace dnsbs::sim {

/// The function a host performs inside its site; decides both who issues
/// reverse queries for which traffic and what the host's name looks like.
enum class HostRole : std::uint8_t {
  kIspResolver,   ///< shared recursive resolver of an ISP / carrier (ns names)
  kSiteResolver,  ///< per-site nameserver (ns names)
  kFirewall,      ///< perimeter firewall (fw names)
  kMailServer,    ///< MTA (mail names)
  kAntispam,      ///< anti-spam appliance (ironport/spam names)
  kWebServer,     ///< www names
  kNtpServer,     ///< ntp names
  kHomeHost,      ///< residential pool host (home keyword + address digits)
  kMobileHost,    ///< carrier pool host (pool/dynamic names)
  kCorpHost,      ///< office desktop (generic name or none)
  kServer,        ///< generic hosting-center server
  kCdnNode,       ///< CDN infrastructure (akamai/edgecast/... suffix)
  kCloudAwsNode,  ///< EC2-style node (amazonaws suffix)
  kCloudMsNode,   ///< Azure-style node
  kGoogleNode,    ///< Google infrastructure (google suffix)
  kOpenResolver,  ///< large public resolver (google-public-dns style)
};

const char* to_string(HostRole r) noexcept;

struct NamingConfig {
  /// Fraction of (non-infrastructure) hosts with no PTR record, per site
  /// type (residential, corporate, hosting, university, mobile).
  std::array<double, kSiteTypeCount> nxdomain_fraction = {0.20, 0.10, 0.14, 0.08, 0.24};
  /// Fraction whose reverse authority is unreachable.
  double unreach_fraction = 0.03;
};

class NamingModel final : public core::QuerierResolver {
 public:
  NamingModel(const AddressPlan& plan, NamingConfig config, std::uint64_t seed);

  /// The host's role, stable per address.
  HostRole role_of(net::IPv4Addr addr) const;

  /// QuerierResolver: the name a reverse lookup of `querier` yields.
  core::QuerierInfo resolve(net::IPv4Addr querier) const override;

  /// True if the address owns a PTR record (drives the rcode the final
  /// authority returns for backscatter about this originator).
  bool has_reverse(net::IPv4Addr addr) const;

  /// PTR TTL for addresses in this /24 (per-zone operator policy; mix of
  /// 10 min to 1 day as in the paper's Table VII TTL column).
  std::uint32_t ptr_ttl(net::IPv4Addr addr) const;

  /// Negative-caching TTL for the /24 (SOA MINIMUM).
  std::uint32_t negative_ttl(net::IPv4Addr addr) const;

  const AddressPlan& plan() const noexcept { return plan_; }

 private:
  std::uint64_t mix(net::IPv4Addr addr, std::uint64_t salt) const noexcept;
  /// role_of / has_reverse for an address whose site (or nullptr) the
  /// caller already looked up.
  HostRole role_in(const Site* site, net::IPv4Addr addr) const noexcept;
  bool has_reverse_in(const Site* site, HostRole role, net::IPv4Addr addr) const noexcept;

  const AddressPlan& plan_;
  NamingConfig config_;
  std::uint64_t seed_;
};

}  // namespace dnsbs::sim
