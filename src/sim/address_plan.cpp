#include "sim/address_plan.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace dnsbs::sim {

const std::vector<net::Prefix>& darknet_prefixes() {
  static const std::vector<net::Prefix> kPrefixes = {
      net::Prefix(net::IPv4Addr::from_octets(127, 0, 0, 0), 10),
      net::Prefix(net::IPv4Addr::from_octets(127, 128, 0, 0), 11),
  };
  return kPrefixes;
}

const char* to_string(SiteType t) noexcept {
  switch (t) {
    case SiteType::kResidential: return "residential";
    case SiteType::kCorporate: return "corporate";
    case SiteType::kHosting: return "hosting";
    case SiteType::kUniversity: return "university";
    case SiteType::kMobile: return "mobile";
  }
  return "?";
}

AddressPlan AddressPlan::generate(const AddressPlanConfig& config, std::uint64_t seed) {
  AddressPlan plan;
  util::Rng rng = util::Rng::stream(seed, 0xadd2);

  const auto& countries = netdb::world_countries();
  double weight_total = 0.0;
  for (const auto& c : countries) weight_total += c.weight;

  // 1. Allocate /8s to countries, proportional to weight, in region order
  //    so that neighbouring /8s belong to the same region (as in the real
  //    registry allocations the paper's global entropy relies on).
  struct Allocation {
    netdb::CountryCode cc;
    netdb::Region region;
    std::size_t slash8_count;
  };
  std::vector<Allocation> allocations;
  for (const auto& c : countries) {
    const auto share = static_cast<std::size_t>(std::round(
        static_cast<double>(config.total_slash8) * c.weight / weight_total));
    allocations.push_back({c.code, c.region, std::max<std::size_t>(1, share)});
  }
  std::stable_sort(allocations.begin(), allocations.end(),
                   [](const Allocation& a, const Allocation& b) {
                     return static_cast<int>(a.region) < static_cast<int>(b.region);
                   });

  // /8s from 1 upward, skipping loopback and the historic class-D/E space.
  std::uint32_t next_slash8 = 1;
  const auto take_slash8 = [&next_slash8]() {
    while (next_slash8 == 10 || next_slash8 == 127) ++next_slash8;
    return next_slash8 <= 223 ? next_slash8++ : 0;
  };

  // 2. Each country /8 hosts several ASes, each owning a span of /16s.
  netdb::Asn next_asn = 1000;
  for (const auto& alloc : allocations) {
    for (std::size_t k = 0; k < alloc.slash8_count; ++k) {
      const std::uint32_t s8 = take_slash8();
      if (s8 == 0) break;  // address space exhausted
      const net::Prefix p8(net::IPv4Addr(s8 << 24), 8);
      plan.geo_db_.add(p8, alloc.cc);

      const std::size_t n_as = std::max<std::size_t>(1, config.ases_per_slash8);
      const std::size_t span = 256 / n_as;  // /16s per AS
      for (std::size_t a = 0; a < n_as; ++a) {
        AsInfo info;
        info.asn = next_asn++;
        info.country = alloc.cc;
        info.region = alloc.region;
        const std::string as_name =
            util::format("AS%u-%s-net", info.asn, alloc.cc.to_string().c_str());
        for (std::size_t s = 0; s < span; ++s) {
          const std::uint32_t s16 = (s8 << 8) | static_cast<std::uint32_t>(a * span + s);
          const net::Prefix p16(net::IPv4Addr(s16 << 16), 16);
          info.slash16s.push_back(p16);
          plan.as_db_.add(p16, info.asn, as_name);
        }
        plan.ases_.push_back(std::move(info));
      }
    }
  }

  // 3. Carve /24 sites: pick an AS (weighted toward larger regions via the
  //    AS list itself, which is weight-proportional), a /16, and an unused
  //    /24 index.  Type by the configured mix.
  double mix_total = 0.0;
  for (const double m : config.site_mix) mix_total += m;
  plan.sites_.reserve(config.sites);
  while (plan.sites_.size() < config.sites) {
    const AsInfo& as_info = plan.ases_[rng.below(plan.ases_.size())];
    const net::Prefix& p16 = as_info.slash16s[rng.below(as_info.slash16s.size())];
    const std::uint32_t s24 = (p16.address().value() >> 8) | rng.below(256);
    const auto index = static_cast<std::uint32_t>(plan.sites_.size());
    if (!plan.site_index_.try_emplace(s24, index).second) continue;

    Site site;
    site.prefix = net::Prefix(net::IPv4Addr(s24 << 8), 24);
    site.asn = as_info.asn;
    site.country = as_info.country;
    site.region = as_info.region;
    double r = rng.uniform() * mix_total;
    std::size_t type_idx = 0;
    for (; type_idx + 1 < kSiteTypeCount; ++type_idx) {
      r -= config.site_mix[type_idx];
      if (r < 0.0) break;
    }
    site.type = static_cast<SiteType>(type_idx);
    plan.by_type_[type_idx].push_back(plan.sites_.size());
    plan.sites_.push_back(site);
  }
  return plan;
}

std::vector<std::size_t> AddressPlan::sites_in_country(netdb::CountryCode cc) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].country == cc) out.push_back(i);
  }
  return out;
}

net::IPv4Addr AddressPlan::random_host(util::Rng& rng, SiteType type) const noexcept {
  const auto& pool = by_type_[static_cast<std::size_t>(type)];
  const Site& site = pool.empty() ? sites_[rng.below(sites_.size())]
                                  : sites_[pool[rng.below(pool.size())]];
  // Host part 1..254 (skip network and broadcast).
  return site.prefix.at(1 + rng.below(254));
}

net::IPv4Addr AddressPlan::random_host(util::Rng& rng) const noexcept {
  const Site& site = sites_[rng.below(sites_.size())];
  return site.prefix.at(1 + rng.below(254));
}

const Site* AddressPlan::site_of(net::IPv4Addr addr) const noexcept {
  const auto* slot = site_index_.find(addr.slash24());
  return slot ? &sites_[slot->second] : nullptr;
}

}  // namespace dnsbs::sim
