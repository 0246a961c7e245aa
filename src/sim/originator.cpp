#include "sim/originator.hpp"

#include <algorithm>
#include <iterator>

namespace dnsbs::sim {

namespace {

/// Class behaviour defaults: traffic kind, target strategy, base touch
/// rate (per hour; drawn Pareto-heavy per originator), diurnality, and
/// where such originators typically live.
struct ClassDefaults {
  TrafficKind kind;
  TargetStrategy strategy;
  double base_rate;       ///< Pareto scale of touches/hour
  double rate_alpha;      ///< Pareto shape (smaller = heavier tail)
  double rate_cap;        ///< per-hour ceiling to bound event budgets
  double diurnal;         ///< diurnal strength
  double regional_bias;   ///< fraction of region-local targets
  SiteType home;          ///< site type the originator's own address is in
};

const ClassDefaults& defaults_for(core::AppClass cls) noexcept {
  // Rates are scenario-scaled; ratios between classes matter more than
  // absolute values.  Spam and scan dominate counts (paper Table V),
  // ad-trackers are few but huge (Fig. 10a), crawlers are many but small
  // per-address (paper §VI-B).
  static const ClassDefaults kDefaults[core::kAppClassCount] = {
      // ad-tracker: few origins, giant footprint, user-driven diurnal
      {TrafficKind::kWebFetch, TargetStrategy::kEndUsers, 140.0, 2.2, 900, 0.7, 0.25,
       SiteType::kHosting},
      // cdn: regional clients, home-heavy queriers
      {TrafficKind::kWebFetch, TargetStrategy::kEndUsers, 90.0, 1.8, 700, 0.6, 0.85,
       SiteType::kHosting},
      // cloud: front-ends, moderately large
      {TrafficKind::kWebFetch, TargetStrategy::kEndUsers, 55.0, 1.9, 500, 0.5, 0.35,
       SiteType::kHosting},
      // crawler: many parallel addresses, each small
      {TrafficKind::kCrawlVisit, TargetStrategy::kWebServers, 12.0, 2.5, 90, 0.2, 0.0,
       SiteType::kHosting},
      // dns: large resolvers/servers talking to nameservers
      {TrafficKind::kDnsTraffic, TargetStrategy::kDnsServers, 30.0, 2.0, 250, 0.3, 0.2,
       SiteType::kHosting},
      // mail: mailing lists, bursty business-hours pattern, home-country
      // heavy (the paper's exemplar list is Japanese)
      {TrafficKind::kSmtp, TargetStrategy::kMailServers, 18.0, 1.8, 250, 0.8, 0.80,
       SiteType::kCorporate},
      // ntp: steady, small-but-wide, clients of every kind
      {TrafficKind::kNtpTraffic, TargetStrategy::kAllHosts, 22.0, 2.2, 160, 0.1, 0.3,
       SiteType::kHosting},
      // p2p: residential peers probing each other (mis-behaving clients
      // also hit random empty space — modelled as scan-like probes)
      {TrafficKind::kP2pTraffic, TargetStrategy::kPeers, 16.0, 1.9, 150, 0.4, 0.4,
       SiteType::kResidential},
      // push: persistent mobile connections (TCP 5223-style)
      {TrafficKind::kWebFetch, TargetStrategy::kMobileUsers, 40.0, 2.0, 300, 0.5, 0.3,
       SiteType::kHosting},
      // scan: address-space walkers, flat in time, heavy tail
      {TrafficKind::kScanProbe, TargetStrategy::kRandomAddress, 70.0, 1.5, 1500, 0.05,
       0.0, SiteType::kHosting},
      // spam: the most numerous; compromised hosts everywhere.  Campaigns
      // are fairly country-concentrated (language-targeted), which is why
      // spammers top national views but fade at the roots (paper Tables
      // VII vs VIII).
      {TrafficKind::kSmtp, TargetStrategy::kMailServers, 25.0, 1.6, 500, 0.25, 0.45,
       SiteType::kResidential},
      // update: vendor services, regional, few
      {TrafficKind::kWebFetch, TargetStrategy::kEndUsers, 30.0, 2.0, 250, 0.6, 0.8,
       SiteType::kHosting},
  };
  return kDefaults[static_cast<std::size_t>(cls)];
}

std::uint16_t scan_port(util::Rng& rng) {
  // The long tail of scanned ports, ssh-heavy as in Figure 13.
  // Sentinels: 1 = ICMP sweep, 0 = multi-port scan.
  static constexpr std::uint16_t kPorts[] = {22, 22, 22, 80, 80, 443,
                                             23, 3389, 1, 1, 0};
  return kPorts[rng.below(std::size(kPorts))];
}

}  // namespace

double weekly_rate_drift(const OriginatorSpec& spec, std::int64_t week) noexcept {
  std::uint64_t z = (static_cast<std::uint64_t>(spec.address.value()) << 20) ^
                    static_cast<std::uint64_t>(week + 7);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
  // exp of a symmetric triangle-ish variate: multiplicative drift.
  return std::exp(0.5 * (2.0 * u - 1.0));
}

OriginatorSpec make_spec(core::AppClass cls, const AddressPlan& plan, util::Rng& rng,
                         double rate_scale) {
  const ClassDefaults& d = defaults_for(cls);
  OriginatorSpec spec;
  spec.cls = cls;
  spec.kind = d.kind;
  spec.strategy = d.strategy;
  // Compromised-host classes originate from a mix of site types; services
  // come from their natural home.
  if (cls == core::AppClass::kSpam || cls == core::AppClass::kScan) {
    const double r = rng.uniform();
    const SiteType t = r < 0.45   ? SiteType::kResidential
                       : r < 0.75 ? SiteType::kHosting
                       : r < 0.9  ? SiteType::kCorporate
                                  : SiteType::kMobile;
    spec.address = plan.random_host(rng, t);
  } else {
    spec.address = plan.random_host(rng, d.home);
  }
  spec.touches_per_hour =
      std::min(d.rate_cap, rng.pareto(d.base_rate * rate_scale, d.rate_alpha));
  spec.diurnal_strength = d.diurnal;
  spec.diurnal_peak_hour = rng.uniform(9.0, 15.0);
  spec.regional_bias = d.regional_bias;
  if (const Site* site = plan.site_of(spec.address)) spec.home_region = site->region;
  if (cls == core::AppClass::kScan) spec.port = scan_port(rng);
  return spec;
}

std::vector<OriginatorSpec> make_population(const AddressPlan& plan,
                                            const OriginatorPopulationConfig& config,
                                            util::Rng& rng) {
  std::vector<OriginatorSpec> population;
  const auto focus_sites = plan.sites_in_country(config.focus_country);
  for (const core::AppClass cls : core::all_app_classes()) {
    const ClassProfile& profile = config.classes[static_cast<std::size_t>(cls)];
    for (std::size_t i = 0; i < profile.count; ++i) {
      OriginatorSpec spec = make_spec(cls, plan, rng, profile.rate_scale);
      // Re-home some originators into the focus country so a national
      // authority has something to see.
      if (!focus_sites.empty() && rng.chance(profile.in_country_fraction)) {
        const Site& site = plan.sites()[focus_sites[rng.below(focus_sites.size())]];
        spec.address = site.prefix.at(1 + rng.below(254));
        spec.home_region = site.region;
      }
      population.push_back(spec);

      // Coordinated scanning teams: siblings in the same /24, same port
      // (paper §VI-B found 39 single-class blocks with 4+ originators).
      if (cls == core::AppClass::kScan && rng.chance(kScanTeamProbability)) {
        const net::Prefix block(spec.address, 24);
        const std::size_t team = 3 + rng.below(6);
        for (std::size_t member = 0; member < team; ++member) {
          OriginatorSpec sibling = spec;
          sibling.address = block.at(1 + rng.below(254));
          if (sibling.address == spec.address) continue;
          sibling.touches_per_hour =
              spec.touches_per_hour * rng.uniform(0.6, 1.4);
          population.push_back(sibling);
        }
      }
    }
  }
  return population;
}

TargetPicker::TargetPicker(const AddressPlan& plan, const QuerierPopulation& qpop)
    : plan_(plan),
      qpop_(qpop),
      mail_zipf_(std::max<std::size_t>(1, qpop.mail_servers().size()), 0.9),
      web_zipf_(std::max<std::size_t>(1, qpop.web_servers().size()), 1.0) {
  for (std::size_t i = 0; i < plan.sites().size(); ++i) {
    const Site& site = plan.sites()[i];
    if (site.type == SiteType::kResidential || site.type == SiteType::kMobile) {
      user_sites_.push_back(i);
      user_sites_by_region_[static_cast<std::size_t>(site.region)].push_back(i);
      user_sites_by_country_[site.country].push_back(i);
      if (site.type == SiteType::kMobile) mobile_sites_.push_back(i);
    }
  }
  for (const net::IPv4Addr server : qpop.mail_servers()) {
    if (const Site* site = plan.site_of(server)) {
      mail_servers_by_country_[site->country].push_back(server);
    }
  }
}

net::IPv4Addr TargetPicker::pick_end_user(const OriginatorSpec& spec, bool use_region,
                                          util::Rng& rng) const {
  // Region-biased draws concentrate further at the country level: a
  // Japan-based CDN node mostly serves Japanese clients (the low global
  // entropy of the paper's cdn/mail case studies).
  const std::vector<std::size_t>* pool = &user_sites_;
  if (use_region) {
    const Site* home = plan_.site_of(spec.address);
    if (home && rng.chance(0.7)) {
      const auto it = user_sites_by_country_.find(home->country);
      if (it != user_sites_by_country_.end() && !it->second.empty()) pool = &it->second;
    }
    if (pool == &user_sites_) {
      const auto& regional =
          user_sites_by_region_[static_cast<std::size_t>(spec.home_region)];
      if (!regional.empty()) pool = &regional;
    }
  }
  if (pool->empty()) return plan_.random_host(rng);
  const Site& site = plan_.sites()[(*pool)[rng.below(pool->size())]];
  return site.prefix.at(3 + rng.below(252));
}

net::IPv4Addr TargetPicker::pick(const OriginatorSpec& spec, util::SimTime now,
                                 util::Rng& rng) const {
  const std::int64_t week = now.week_index();
  // Regional focus itself drifts a little week to week.
  const double drift = weekly_rate_drift(spec, week + 1000);
  const double bias = std::clamp(spec.regional_bias * drift, 0.0, 1.0);
  const bool regional = rng.chance(bias);
  switch (spec.strategy) {
    case TargetStrategy::kRandomAddress: {
      // Scanners walk the whole address space.  Our synthetic world is a
      // compressed Internet: allocated /24 sites stand in for the routed,
      // occupied space, the darknet blocks for monitored dark space, and
      // the remainder for probes that hit nothing.  The occupied fraction
      // mirrors real responsive-space density closely enough that scan
      // backscatter and darknet evidence stay correlated (DESIGN.md).
      const double u = rng.uniform();
      if (u < 0.42) return plan_.random_host(rng);
      if (u < 0.45) {
        const auto& dark = darknet_prefixes();
        const net::Prefix& p = dark[rng.below(dark.size())];
        return p.at(rng.below(p.size()));
      }
      return net::IPv4Addr(static_cast<std::uint32_t>(rng.next()));
    }
    case TargetStrategy::kMailServers: {
      // Regional mailing lists / spam campaigns concentrate on the home
      // country's mail servers; the rest of the traffic goes global.
      if (regional) {
        if (const Site* home = plan_.site_of(spec.address)) {
          const auto it = mail_servers_by_country_.find(home->country);
          if (it != mail_servers_by_country_.end() && !it->second.empty()) {
            return it->second[rng.below(it->second.size())];
          }
        }
      }
      const auto& servers = qpop_.mail_servers();
      if (servers.empty()) return plan_.random_host(rng);
      // Campaign rotation: which servers sit at the head of the Zipf
      // ranking shifts per originator per week, so the querier set (and
      // with it the feature vector) evolves even for stable senders.
      const std::size_t rotation = static_cast<std::size_t>(
          weekly_rate_drift(spec, week + 2000) * 1e6);
      return servers[(mail_zipf_.sample(rng) + rotation) % servers.size()];
    }
    case TargetStrategy::kEndUsers:
      return pick_end_user(spec, regional, rng);
    case TargetStrategy::kMobileUsers: {
      if (mobile_sites_.empty()) return pick_end_user(spec, regional, rng);
      const Site& site = plan_.sites()[mobile_sites_[rng.below(mobile_sites_.size())]];
      return site.prefix.at(3 + rng.below(252));
    }
    case TargetStrategy::kAllHosts:
      return plan_.random_host(rng);
    case TargetStrategy::kWebServers: {
      const auto& servers = qpop_.web_servers();
      if (servers.empty()) return plan_.random_host(rng);
      return servers[web_zipf_.sample(rng) % servers.size()];
    }
    case TargetStrategy::kDnsServers: {
      const auto& servers = qpop_.dns_servers();
      if (servers.empty()) return plan_.random_host(rng);
      return servers[rng.below(servers.size())];
    }
    case TargetStrategy::kPeers:
      // Mis-behaving P2P clients probe stale or garbage addresses (paper
      // §IV-C observed misclassified p2p hitting darknets); a slice of
      // peer traffic goes to random space, darknet included.
      if (rng.chance(0.10)) {
        const double u = rng.uniform();
        if (u < 0.30) return plan_.random_host(rng);
        if (u < 0.34) {
          const auto& dark = darknet_prefixes();
          const net::Prefix& p = dark[rng.below(dark.size())];
          return p.at(rng.below(p.size()));
        }
        return net::IPv4Addr(static_cast<std::uint32_t>(rng.next()));
      }
      return pick_end_user(spec, regional, rng);
  }
  return plan_.random_host(rng);
}

}  // namespace dnsbs::sim
