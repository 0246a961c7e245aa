// Columnar + incremental feature extraction (core::FeatureEngine): the
// incremental-vs-full-recompute oracle, bitwise equivalence with the
// reference extractors in feature_reference.hpp (statics, all eight
// dynamic features, the interval AS/country normalizers — cold and grown
// incrementally), epoch-scratch reuse, one resolve per querier on
// a cold extract, carry-forward across sensors and windows, and
// thread-count determinism of the dnsbs.features.* counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/feature_engine.hpp"
#include "core/sensor.hpp"
#include "feature_reference.hpp"
#include "util/parallel.hpp"

namespace dnsbs::core {
namespace {

using dns::QueryRecord;
using dns::RCode;
using net::IPv4Addr;
using util::SimTime;

QueryRecord rec(std::int64_t secs, IPv4Addr querier, IPv4Addr originator) {
  return QueryRecord{SimTime::seconds(secs), querier, originator, RCode::kNoError};
}

IPv4Addr addr(int a, int b, int c, int d) {
  return IPv4Addr((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                  (std::uint32_t(c) << 8) | std::uint32_t(d));
}

/// Deterministic resolver: category cycles with the querier's last octet.
/// Stable per address, as carry-forward requires.
class CyclingResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(IPv4Addr querier) const override {
    QuerierInfo info;
    switch (querier.octet(3) % 4) {
      case 0:
        info.status = ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("mail.example.com");
        break;
      case 1:
        info.status = ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("ns1.example.com");
        break;
      case 2:
        info.status = ResolveStatus::kNxDomain;
        break;
      default:
        info.status = ResolveStatus::kUnreachable;
        break;
    }
    return info;
  }
};

/// CyclingResolver that counts resolve() calls per querier; thread-safe
/// because the engine resolves unseen queriers in parallel.
class CountingResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(IPv4Addr querier) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counts_[querier.value()];
    }
    return base_.resolve(querier);
  }

  std::map<std::uint32_t, int> counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  CyclingResolver base_;
  mutable std::mutex mu_;
  mutable std::map<std::uint32_t, int> counts_;
};

struct Dbs {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  Dbs() {
    as_db.add(*net::Prefix::parse("10.0.0.0/16"), 100, "as-a");
    as_db.add(*net::Prefix::parse("10.1.0.0/16"), 200, "as-b");
    as_db.add(*net::Prefix::parse("10.2.0.0/16"), 300, "as-c");
    as_db.add(*net::Prefix::parse("10.9.0.0/16"), 900, "as-shift");
    geo_db.add(*net::Prefix::parse("10.0.0.0/16"), netdb::CountryCode('j', 'p'));
    geo_db.add(*net::Prefix::parse("10.1.0.0/16"), netdb::CountryCode('u', 's'));
    geo_db.add(*net::Prefix::parse("10.2.0.0/16"), netdb::CountryCode('d', 'e'));
    geo_db.add(*net::Prefix::parse("10.9.0.0/16"), netdb::CountryCode('f', 'r'));
  }
};

/// Multi-wave stream: wave 0 seeds 12 originators; wave 1 is a
/// normalizer-shift wave (new AS/country/periods via churned originators);
/// wave 2 is pure churn (one originator, already-seen periods, AS and CC).
std::vector<QueryRecord> wave(int which) {
  std::vector<QueryRecord> records;
  if (which == 0) {
    for (int o = 1; o <= 12; ++o) {
      for (int j = 0; j < 6; ++j) {
        records.push_back(
            rec(o * 37 + j, addr(10, j % 3, o % 4, j + 1), addr(1, 0, 0, o)));
      }
    }
  } else if (which == 1) {
    for (int o = 3; o <= 12; o += 3) {
      for (int j = 0; j < 3; ++j) {
        records.push_back(rec(2000 + o + j, addr(10, 9, o, j + 1), addr(1, 0, 0, o)));
      }
    }
  } else {
    for (int j = 0; j < 2; ++j) {
      records.push_back(rec(2100 + j, addr(10, 0, 1, 40 + j), addr(1, 0, 0, 5)));
    }
  }
  return records;
}

/// Queriers outside every AS and geo prefix of Dbs, joining two wave-0
/// originators: they count toward neither interval normalizer.
std::vector<QueryRecord> unmapped_queriers() {
  std::vector<QueryRecord> records;
  for (int j = 0; j < 3; ++j) {
    records.push_back(rec(2200 + j, addr(10, 5, 0, j + 1), addr(1, 0, 0, 2 + j % 2)));
  }
  return records;
}

void expect_rows_bitwise_equal(const std::vector<FeatureVector>& got,
                               const std::vector<FeatureVector>& want,
                               const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].originator, want[i].originator) << context << " row " << i;
    EXPECT_EQ(got[i].footprint, want[i].footprint) << context << " row " << i;
    // EXPECT_EQ on double vectors is exact equality: the incremental path
    // must be *bitwise* identical to a full recompute, not merely close.
    EXPECT_EQ(got[i].row(), want[i].row()) << context << " row " << i;
  }
}

SensorConfig small_config() {
  SensorConfig cfg;
  cfg.min_queriers = 3;
  cfg.top_n = 0;
  return cfg;
}

TEST(FeatureEngineOracle, IncrementalMatchesFullRecomputeAcrossWaves) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // The incremental sensor extracts after every wave (and twice in a row,
  // exercising the unchanged-interval fast path); the oracle is a fresh
  // sensor over the concatenated stream, recomputing everything.
  Sensor incremental(small_config(), dbs.as_db, dbs.geo_db, resolver);
  std::vector<QueryRecord> all_so_far;
  for (int w = 0; w < 3; ++w) {
    const auto records = wave(w);
    for (const auto& r : records) {
      incremental.ingest(r);
      all_so_far.push_back(r);
    }
    const auto rows = incremental.extract_features();
    const auto rows_again = incremental.extract_features();

    Sensor oracle(small_config(), dbs.as_db, dbs.geo_db, resolver);
    oracle.ingest_all(all_so_far);
    const auto full = oracle.extract_features();

    const std::string context = "wave " + std::to_string(w);
    expect_rows_bitwise_equal(rows, full, context);
    expect_rows_bitwise_equal(rows_again, full, context + " (fast path)");
  }
}

TEST(FeatureEngineEquivalence, SoAColumnsMatchMapReference) {
  const Dbs dbs;
  const CyclingResolver resolver;

  OriginatorAggregator agg;
  for (int w = 0; w < 3; ++w) {
    for (const auto& r : wave(w)) agg.add(r);
  }
  for (const auto& r : unmapped_queriers()) agg.add(r);
  const auto interesting = agg.select_interesting(3, 0);
  ASSERT_FALSE(interesting.empty());

  FeatureEngine engine(dbs.as_db, dbs.geo_db, resolver,
                       std::make_shared<FeatureExtractionCache>());
  FeatureExtractionStats stats;
  const auto rows = engine.extract(agg, interesting, 1, &stats);
  ASSERT_EQ(rows.size(), interesting.size());
  EXPECT_EQ(stats.rows_recomputed, rows.size());
  EXPECT_EQ(stats.rows_reused, 0u);

  // The interval normalizers, counted independently of the engine's
  // interner and seen-sets.
  const IntervalCounts counts = reference_interval_counts(agg, dbs.as_db, dbs.geo_db);
  EXPECT_EQ(counts.ases, 4u);
  EXPECT_EQ(counts.countries, 4u);
  EXPECT_EQ(engine.interval_as_count(), counts.ases);
  EXPECT_EQ(engine.interval_cc_count(), counts.countries);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OriginatorAggregate& a = *interesting[i];
    // Statics: bitwise against the per-membership resolver path.
    const StaticFeatures statics = compute_static_features(a, resolver);
    for (std::size_t c = 0; c < kQuerierCategoryCount; ++c) {
      EXPECT_EQ(rows[i].statics[c], statics[c]) << "row " << i << " static " << c;
    }
    // Dynamics: bitwise against the first-touch-order map reference.
    const DynamicFeatures want = reference_dynamics(a, dbs.as_db, dbs.geo_db,
                                                    agg.total_periods(), counts.ases,
                                                    counts.countries);
    for (std::size_t d = 0; d < kDynamicFeatureCount; ++d) {
      EXPECT_EQ(rows[i].dynamics[d], want[d]) << "row " << i << " dynamic " << d;
    }
  }
}

TEST(FeatureEngineEquivalence, IncrementalNormalizersMatchReference) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // One engine over a growing interval: its seen-sets grow only from the
  // aggregates each extract finds dirty, and must still equal a fresh
  // count over the whole interval after every wave.
  FeatureEngine engine(dbs.as_db, dbs.geo_db, resolver,
                       std::make_shared<FeatureExtractionCache>());
  // Dbs gives each /16 one AS and one country, so the counts agree.
  OriginatorAggregator agg;
  const std::size_t want[] = {3, 4, 4, 4};
  for (int w = 0; w < 4; ++w) {
    for (const auto& r : w < 3 ? wave(w) : unmapped_queriers()) agg.add(r);
    (void)engine.extract(agg, agg.select_interesting(3, 0), 1, nullptr);
    const IntervalCounts counts = reference_interval_counts(agg, dbs.as_db, dbs.geo_db);
    EXPECT_EQ(counts.ases, want[w]) << "wave " << w;
    EXPECT_EQ(counts.countries, want[w]) << "wave " << w;
    EXPECT_EQ(engine.interval_as_count(), counts.ases) << "wave " << w;
    EXPECT_EQ(engine.interval_cc_count(), counts.countries) << "wave " << w;
  }
}

TEST(FeatureEngineScratch, EpochReuseSurvivesForcedRecomputes) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // One engine extracts three times over a growing aggregator: every
  // extract recomputes rows with the *same* scratch buffers (overlapping
  // /24 and AS universes across rows), so a stale stamp leaking across
  // rows or epochs would corrupt counts.  A fresh sensor per step is the
  // oracle.
  Sensor sensor(small_config(), dbs.as_db, dbs.geo_db, resolver);
  std::vector<QueryRecord> all_so_far;
  for (int w = 0; w < 3; ++w) {
    for (const auto& r : wave(w)) {
      sensor.ingest(r);
      all_so_far.push_back(r);
    }
  }
  (void)sensor.extract_features();

  // Shift a normalizer (new period bucket) via a single originator: every
  // cached row is invalidated and recomputed through the reused scratch.
  const QueryRecord shift = rec(9000, addr(10, 0, 1, 1), addr(1, 0, 0, 1));
  sensor.ingest(shift);
  all_so_far.push_back(shift);
  const auto rows = sensor.extract_features();

  Sensor oracle(small_config(), dbs.as_db, dbs.geo_db, resolver);
  oracle.ingest_all(all_so_far);
  expect_rows_bitwise_equal(rows, oracle.extract_features(), "post-shift");
}

TEST(FeatureEngineCounters, ChurnAndNormalizerShiftsPartitionRows) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  const Dbs dbs;
  const CyclingResolver resolver;
  Sensor sensor(small_config(), dbs.as_db, dbs.geo_db, resolver);
  for (const auto& r : wave(0)) sensor.ingest(r);

  const auto counters = [] {
    const auto s = util::metrics_snapshot();
    struct Vals {
      std::int64_t reused, recomputed, dirty;
    };
    return Vals{s.scalar("dnsbs.features.rows_reused"),
                s.scalar("dnsbs.features.rows_recomputed"),
                s.scalar("dnsbs.features.dirty_originators")};
  };

  const auto before = counters();
  const std::size_t n = sensor.extract_features().size();
  ASSERT_EQ(n, 12u);
  auto after = counters();
  EXPECT_EQ(after.recomputed - before.recomputed, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.reused - before.reused, 0);
  EXPECT_EQ(after.dirty - before.dirty, 12);

  // Unchanged sensor: the fast path reuses every row, touching nothing.
  auto prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.reused - prev.reused, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.recomputed - prev.recomputed, 0);
  EXPECT_EQ(after.dirty - prev.dirty, 0);

  // Pure churn: one originator gains queriers in an already-counted /16
  // (same AS/CC) within an already-seen period bucket, so only its row
  // recomputes — the normalizers (periods, AS, CC) are unchanged.
  sensor.ingest(rec(400, addr(10, 0, 1, 40), addr(1, 0, 0, 5)));
  sensor.ingest(rec(401, addr(10, 0, 1, 41), addr(1, 0, 0, 5)));
  prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.dirty - prev.dirty, 1);
  EXPECT_EQ(after.recomputed - prev.recomputed, 1);
  EXPECT_EQ(after.reused - prev.reused, static_cast<std::int64_t>(n) - 1);

  // Normalizer shift (wave 1: new AS, country and periods): only the
  // churned originators are dirty, but every row must recompute.
  for (const auto& r : wave(1)) sensor.ingest(r);
  prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.dirty - prev.dirty, 4);
  EXPECT_EQ(after.recomputed - prev.recomputed, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.reused - prev.reused, 0);
#endif
}

// 6 originators share a pool of 30 queriers; every originator is queried
// by every querier, so resolving per membership would take 180 calls.
std::vector<QueryRecord> shared_querier_records() {
  std::vector<QueryRecord> records;
  std::int64_t t = 0;
  for (int o = 1; o <= 6; ++o) {
    for (int q = 1; q <= 30; ++q) records.push_back(rec(t++, addr(10, 0, 0, q), addr(1, 0, 0, o)));
  }
  return records;
}

TEST(QuerierCache, ExtractFeaturesResolvesEachQuerierOnce) {
  const Dbs dbs;
  const std::vector<QueryRecord> records = shared_querier_records();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CountingResolver resolver;
    const auto cache = std::make_shared<FeatureExtractionCache>();
    SensorConfig cfg = small_config();
    cfg.threads = threads;
    Sensor sensor(cfg, dbs.as_db, dbs.geo_db, resolver);
    sensor.set_feature_cache(cache);
    sensor.ingest_all(records);
    ASSERT_EQ(sensor.extract_features().size(), 6u) << "threads=" << threads;
    auto counts = resolver.counts();
    EXPECT_EQ(counts.size(), 30u) << "threads=" << threads;
    for (const auto& [querier, count] : counts) {
      EXPECT_EQ(count, 1) << "querier " << querier << " threads=" << threads;
    }

    // A second sensor sharing the interner meets no unseen querier.
    Sensor again(cfg, dbs.as_db, dbs.geo_db, resolver);
    again.set_feature_cache(cache);
    again.ingest_all(records);
    ASSERT_EQ(again.extract_features().size(), 6u) << "threads=" << threads;
    EXPECT_EQ(resolver.counts(), counts) << "threads=" << threads;
  }
}

TEST(QuerierCache, CacheHitsMatchDirectClassification) {
  const Dbs dbs;
  const std::vector<QueryRecord> records = shared_querier_records();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CountingResolver resolver;
    const auto cache = std::make_shared<FeatureExtractionCache>();
    SensorConfig cfg = small_config();
    cfg.threads = threads;
    Sensor sensor(cfg, dbs.as_db, dbs.geo_db, resolver);
    sensor.set_feature_cache(cache);
    sensor.ingest_all(records);
    ASSERT_EQ(sensor.extract_features().size(), 6u) << "threads=" << threads;

    // Every interned category is the querier's direct resolve + classify.
    ASSERT_EQ(cache->querier_count(), 30u);
    for (int q = 1; q <= 30; ++q) {
      const IPv4Addr querier = addr(10, 0, 0, q);
      const std::uint32_t qid = cache->id_of(querier);
      ASSERT_NE(qid, FeatureExtractionCache::kNoId) << querier.to_string();
      EXPECT_EQ(cache->category(qid), classify_querier(resolver.resolve(querier)))
          << querier.to_string();
    }
  }
}

TEST(FeatureEngineCarryForward, SharedCacheReusesRowsAcrossSensors) {
  const Dbs dbs;
  const CyclingResolver resolver;
  const auto cache = std::make_shared<FeatureExtractionCache>();
  std::vector<QueryRecord> records;
  for (int w = 0; w < 2; ++w) {
    for (const auto& r : wave(w)) records.push_back(r);
  }

  Sensor first(small_config(), dbs.as_db, dbs.geo_db, resolver);
  first.set_feature_cache(cache);
  first.ingest_all(records);
  const auto rows_first = first.extract_features();

  // A second sensor over the same stream shares the cache: its engine has
  // a different interval token, so reuse must go through the
  // column-comparison path — and still match bitwise.
  Sensor second(small_config(), dbs.as_db, dbs.geo_db, resolver);
  second.set_feature_cache(cache);
  second.ingest_all(records);
  const auto rows_second = second.extract_features();
  expect_rows_bitwise_equal(rows_second, rows_first, "shared cache");

  // An independent sensor with a fresh cache agrees too.
  Sensor independent(small_config(), dbs.as_db, dbs.geo_db, resolver);
  independent.ingest_all(records);
  expect_rows_bitwise_equal(rows_second, independent.extract_features(), "fresh cache");
}

TEST(FeatureEngineCarryForward, InterleavedSensorsRecheckForeignRows) {
  // Two sensors share one cache and alternate extracts.  B's extract
  // stamps every row with B's token, so A's next extract (one originator
  // churned) meets rows it scanned earlier but no longer owns: it must
  // flatten them again, compare, and still match a fresh sensor.
  const Dbs dbs;
  const CyclingResolver resolver;
  const auto cache = std::make_shared<FeatureExtractionCache>();
  std::vector<QueryRecord> records = wave(0);
  for (const auto& r : wave(1)) records.push_back(r);

  Sensor a(small_config(), dbs.as_db, dbs.geo_db, resolver);
  Sensor b(small_config(), dbs.as_db, dbs.geo_db, resolver);
  a.set_feature_cache(cache);
  b.set_feature_cache(cache);
  a.ingest_all(records);
  b.ingest_all(records);
  a.extract_features();
  b.extract_features();
  a.ingest_all(wave(2));
  const auto rows = a.extract_features();

  Sensor fresh(small_config(), dbs.as_db, dbs.geo_db, resolver);
  fresh.ingest_all(records);
  fresh.ingest_all(wave(2));
  expect_rows_bitwise_equal(rows, fresh.extract_features(), "interleaved");
}

TEST(FeatureEngineCarryForward, PipelineMatchesIndependentWindows) {
  const Dbs dbs;
  const CyclingResolver resolver;

  const auto run = [&](bool carry_forward) {
    analysis::WindowedPipelineConfig pc;
    pc.sensor = small_config();
    pc.carry_forward = carry_forward;
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    // Window w re-observes wave 0 (same querier histograms — prime
    // carry-forward candidates) plus its own churn wave.
    for (int w = 0; w < 3; ++w) {
      std::vector<QueryRecord> records = wave(0);
      if (w > 0) {
        for (const auto& r : wave(w)) records.push_back(r);
      }
      pipeline.enqueue_window(records, SimTime::hours(w), SimTime::hours(w + 1));
    }
    pipeline.finish();
    std::vector<std::vector<FeatureVector>> features;
    for (const auto& obs : pipeline.observations()) features.push_back(obs.features);
    return features;
  };

  const auto carried = run(true);
  const auto independent = run(false);
  ASSERT_EQ(carried.size(), independent.size());
  for (std::size_t w = 0; w < carried.size(); ++w) {
    expect_rows_bitwise_equal(carried[w], independent[w],
                              "window " + std::to_string(w));
  }
}

TEST(FeatureEngineDeterminism, CountersMatchSerialAcrossThreadCounts) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_thread_count(0); }
  } guard;

  const Dbs dbs;
  const CyclingResolver resolver;
  const auto run_with = [&](std::size_t threads) {
    util::set_thread_count(threads);
    util::metrics_reset();
    SensorConfig cfg = small_config();
    cfg.threads = threads;
    Sensor sensor(cfg, dbs.as_db, dbs.geo_db, resolver);
    for (int w = 0; w < 3; ++w) {
      for (const auto& r : wave(w)) sensor.ingest(r);
      (void)sensor.extract_features();
    }
    (void)sensor.extract_features();
    return util::metrics_snapshot().deterministic_view();
  };

  const util::MetricsSnapshot serial = run_with(1);
  EXPECT_GT(serial.scalar("dnsbs.features.rows_reused"), 0);
  EXPECT_GT(serial.scalar("dnsbs.features.rows_recomputed"), 0);
  EXPECT_GT(serial.scalar("dnsbs.features.dirty_originators"), 0);
  EXPECT_GT(serial.scalar("dnsbs.cache.interner.queriers"), 0);

  for (const std::size_t threads : {2, 4}) {
    const util::MetricsSnapshot parallel = run_with(threads);
    ASSERT_EQ(parallel.values.size(), serial.values.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.values.size(); ++i) {
      EXPECT_EQ(parallel.values[i], serial.values[i])
          << serial.values[i].name << " diverged at threads=" << threads;
    }
  }
#endif
}

}  // namespace
}  // namespace dnsbs::core
