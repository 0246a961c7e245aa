// Figure 4: controlled attenuation experiment.  A single scanner with a
// zero-TTL PTR record probes growing fractions of the address space; we
// count unique queriers at the scanner's final reverse authority and at
// M-Root, and fit a power law to the final-authority response.
#include "common.hpp"

#include <cmath>
#include <iostream>
#include <unordered_set>

#include "util/stats.hpp"

namespace dnsbs::bench {
namespace {

struct Trial {
  std::uint64_t touches;
  std::size_t final_queriers;
  std::size_t root_queriers;
};

Trial run_trial(const sim::AddressPlan& plan, const sim::NamingModel& naming,
                const sim::QuerierPopulation& qpop, net::IPv4Addr scanner_addr,
                std::uint64_t touches, std::uint64_t seed) {
  // Fresh caches per trial, PTR TTL forced to zero for the scanner
  // (mirroring the paper's disabled-caching controlled setup).
  sim::ResolverSimConfig resolver;
  resolver.ptr_ttl_hint = [scanner_addr](net::IPv4Addr a) -> std::optional<std::uint32_t> {
    if (a == scanner_addr) return 0;
    return std::nullopt;
  };
  sim::TrafficEngine engine(plan, naming, qpop, resolver, seed);

  sim::Authority final_auth(sim::AuthorityConfig{
      .name = "final",
      .level = sim::AuthorityLevel::kFinal,
      .country = std::nullopt,
      .zone = net::Prefix(scanner_addr, 24),
  });
  sim::Authority m_root(sim::m_root_authority());
  engine.add_authority(&final_auth);
  engine.add_authority(&m_root);

  const double hours = 10.0;
  sim::OriginatorSpec spec;
  spec.address = scanner_addr;
  spec.cls = core::AppClass::kScan;
  spec.kind = sim::TrafficKind::kScanProbe;
  spec.strategy = sim::TargetStrategy::kRandomAddress;
  spec.touches_per_hour = static_cast<double>(touches) / hours;
  spec.port = 1;  // ICMP sweep, as the paper's Trinocular-style probing
  const std::vector<sim::OriginatorSpec> population = {spec};
  engine.run(population, util::SimTime::seconds(0),
             util::SimTime::seconds(static_cast<std::int64_t>(hours * 3600)));

  const auto unique_queriers = [](const sim::Authority& a) {
    std::unordered_set<net::IPv4Addr> qs;
    for (const auto& r : a.records()) qs.insert(r.querier);
    return qs.size();
  };
  return Trial{touches, unique_queriers(final_auth), unique_queriers(m_root)};
}

int run(int argc, char** argv) {
  print_header(
      "Figure 4: querier footprint of controlled random scans",
      "Fukuda & Heidemann, IMC'15 / TON'17, Fig. 4 (§IV-D)",
      "Unique queriers at the scanner's final reverse authority and at "
      "M-Root vs scan size;\npower-law fit over the final-authority points "
      "(paper found exponent ~0.71).");
  const double scale = arg_scale(argc, argv, 0.3);
  const std::uint64_t seed = arg_seed(argc, argv, 17);

  sim::AddressPlanConfig plan_cfg;
  plan_cfg.sites = static_cast<std::size_t>(16000 * std::sqrt(scale));
  const auto plan = sim::AddressPlan::generate(plan_cfg, seed);
  const sim::NamingModel naming(plan, {}, seed);
  const sim::QuerierPopulation qpop(naming, {}, seed);
  util::Rng pick_rng(seed);
  const net::IPv4Addr scanner = plan.random_host(pick_rng, sim::SiteType::kHosting);

  const std::uint64_t space = plan.sites().size() * 254ULL;
  const std::uint64_t sizes[] = {300, 1000, 3000, 10000, 30000, 100000};

  util::TableWriter table("controlled scans: queriers vs scan size");
  table.columns({"touches", "% of occupied space", "final-auth queriers",
                 "M-Root queriers"});
  std::vector<double> xs, ys;
  for (const std::uint64_t touches : sizes) {
    const Trial t = run_trial(plan, naming, qpop, scanner, touches, seed + touches);
    table.row({util::with_commas(t.touches),
               util::fixed(100.0 * static_cast<double>(touches) /
                               static_cast<double>(space), 3),
               std::to_string(t.final_queriers), std::to_string(t.root_queriers)});
    if (t.final_queriers > 0) {
      xs.push_back(static_cast<double>(touches));
      ys.push_back(static_cast<double>(t.final_queriers));
    }
  }
  table.print(std::cout);

  const util::PowerLawFit fit = util::power_law_fit(xs, ys);
  std::printf("power-law fit at final authority: queriers ~ %.3g * touches^%.2f "
              "(r^2=%.3f in log-log)\n",
              fit.c, fit.alpha, fit.r2);
  std::printf("Expected shape (paper Fig. 4): near-linear growth in log-log "
              "with exponent < 1;\nroot view attenuated by orders of "
              "magnitude relative to the final authority.\n");
  return 0;
}

}  // namespace
}  // namespace dnsbs::bench

int main(int argc, char** argv) { return dnsbs::bench::run(argc, argv); }
