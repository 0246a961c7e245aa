// Synthetic IPv4 allocation plan.
//
// Stands in for the real Internet's address registries: /8s are allocated
// to countries clustered by region (so the high octet carries geographic
// signal, as the paper's global-entropy feature assumes), ASes own /16s
// inside their country's /8s, and "sites" (/24 networks with a role, e.g.
// residential pool or hosting center) are carved from AS space.  The plan
// populates the AS and geo databases that the dynamic feature extractor
// queries, exactly as the paper used whois and MaxMind.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/ipv4.hpp"
#include "netdb/as_db.hpp"
#include "netdb/geo_db.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace dnsbs::sim {

/// What kind of network a /24 site is; drives querier roles and naming.
enum class SiteType : std::uint8_t {
  kResidential,  ///< ISP customer pool: home hosts behind a shared resolver
  kCorporate,    ///< office network: firewall, mail server, generic hosts
  kHosting,      ///< datacenter: servers, some CDN/cloud nodes
  kUniversity,   ///< campus: mix of servers and clients, own resolver
  kMobile,       ///< mobile carrier pool: NATed pools, carrier resolver
};
inline constexpr std::size_t kSiteTypeCount = 5;

const char* to_string(SiteType t) noexcept;

struct Site {
  net::Prefix prefix;        ///< the /24
  netdb::Asn asn = 0;
  netdb::CountryCode country;
  netdb::Region region = netdb::Region::kNorthAmerica;
  SiteType type = SiteType::kResidential;
};

struct AsInfo {
  netdb::Asn asn = 0;
  netdb::CountryCode country;
  netdb::Region region = netdb::Region::kNorthAmerica;
  std::vector<net::Prefix> slash16s;
};

struct AddressPlanConfig {
  std::size_t total_slash8 = 96;   ///< /8s to allocate across countries
  std::size_t sites = 20000;       ///< /24 sites carved from AS space
  std::size_t ases_per_slash8 = 4; ///< ASes sharing each /8
  /// Mix of site types (residential, corporate, hosting, university,
  /// mobile); normalized internally.
  std::array<double, kSiteTypeCount> site_mix = {0.55, 0.16, 0.12, 0.05, 0.12};
};

/// Unallocated blocks reserved for darknet monitoring (inside 127/8, which
/// the plan never assigns).  The paper's darknets were a /17 + /18; ours
/// are proportionally larger because our scanners send thousands rather
/// than millions of probes (see DESIGN.md).
const std::vector<net::Prefix>& darknet_prefixes();

class AddressPlan {
 public:
  static AddressPlan generate(const AddressPlanConfig& config, std::uint64_t seed);

  const netdb::AsDb& as_db() const noexcept { return as_db_; }
  const netdb::GeoDb& geo_db() const noexcept { return geo_db_; }
  const std::vector<Site>& sites() const noexcept { return sites_; }
  const std::vector<AsInfo>& ases() const noexcept { return ases_; }

  /// Sites of a given type (indices into sites()).
  const std::vector<std::size_t>& sites_of_type(SiteType t) const noexcept {
    return by_type_[static_cast<std::size_t>(t)];
  }

  /// Sites in a given country (indices into sites()).
  std::vector<std::size_t> sites_in_country(netdb::CountryCode cc) const;

  /// A uniformly random allocated site.
  const Site& random_site(util::Rng& rng) const noexcept {
    return sites_[rng.below(sites_.size())];
  }

  /// A random host address inside a random site of the given type.
  net::IPv4Addr random_host(util::Rng& rng, SiteType type) const noexcept;

  /// A random host anywhere in allocated space.
  net::IPv4Addr random_host(util::Rng& rng) const noexcept;

  /// True if the address falls inside any allocated site.
  const Site* site_of(net::IPv4Addr addr) const noexcept;

 private:
  netdb::AsDb as_db_;
  netdb::GeoDb geo_db_;
  std::vector<Site> sites_;
  std::vector<AsInfo> ases_;
  std::array<std::vector<std::size_t>, kSiteTypeCount> by_type_{};
  /// slash24() of a site's /24 -> index into sites_.  Every site is
  /// exactly one /24, so membership is one exact-key probe.
  util::FlatMap<std::uint32_t, std::uint32_t> site_index_;
};

}  // namespace dnsbs::sim
