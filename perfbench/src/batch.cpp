// The two batch workloads over one jp_ditl log:
//
//   replay_cold     every pass parses the log text into a fresh Sensor,
//                   extracts features cold, fits a forest on the labels
//                   and classifies every detected originator (the paper's
//                   batch analysis of one authority log).
//   retrain_hourly  the parsed records go through WindowedPipeline::
//                   process_window in 1-hour windows with carry-forward on
//                   and a retrain every window (§V-F's loop).
//
// Untraced passes give the end-to-end numbers.  Every pass follows a run of
// calibrate(), and the times are reported at the reference machine speed
// (normalized_seconds).  A traced run alternates untraced passes with
// traced ones whose spans wrap each public call.
#include <algorithm>
#include <cstdio>
#include <istream>
#include <streambuf>

#include "analysis/pipeline.hpp"
#include "core/feature_engine.hpp"
#include "ml/forest.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dnsbs;

namespace {

/// Read-only istream view of a string, so parsing reads the log from
/// memory without copying it first.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

double secs_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Consecutive passes (about a second of either workload), or set-ups,
/// that form one stretch of normalized_seconds().
constexpr std::size_t kPassesPerStretch = 3;

std::uint64_t digest_classes(std::span<const core::ClassifiedOriginator> classified) {
  Digest d;
  for (const auto& c : classified) {
    d.value(c.features.originator.value());
    d.value(static_cast<int>(c.predicted));
  }
  return d.h;
}

/// Digest of everything a window result carries except the registry delta
/// (histogram-shaped and scheduling-dependent).
std::uint64_t digest_result(const analysis::WindowResult& r) {
  Digest d;
  d.value(r.index);
  d.value(r.start.secs());
  d.value(r.end.secs());
  std::vector<std::pair<std::uint32_t, int>> classes;
  for (const auto& [addr, cls] : r.classes) classes.emplace_back(addr.value(), static_cast<int>(cls));
  std::sort(classes.begin(), classes.end());
  for (const auto& [addr, cls] : classes) {
    d.value(addr);
    d.value(cls);
  }
  std::vector<std::pair<std::uint32_t, std::size_t>> footprints;
  for (const auto& [addr, fp] : r.footprints) footprints.emplace_back(addr.value(), fp);
  std::sort(footprints.begin(), footprints.end());
  for (const auto& [addr, fp] : footprints) {
    d.value(addr);
    d.value(fp);
  }
  for (const auto b : r.confidence_hist) d.value(b);
  d.value(r.retrained);
  return d.h;
}

/// The CSV `dnsbs_cli analyze --csv` writes for the same rows.
std::string render_csv(std::span<const core::FeatureVector> rows) {
  util::TableWriter all;
  std::vector<std::string> header = {"originator", "footprint"};
  for (const auto& name : core::feature_names()) header.push_back(name);
  all.columns(header);
  for (const auto& fv : rows) {
    std::vector<std::string> row = {fv.originator.to_string(), std::to_string(fv.footprint)};
    for (const double v : fv.row()) row.push_back(util::fixed(v, 6));
    all.row(std::move(row));
  }
  return all.to_csv();
}

/// Registry counters read at a call boundary in traced passes.
struct Counts {
  std::uint64_t admitted = 0, records = 0, rows = 0, reused = 0, splits = 0, fits = 0;
  static Counts now() {
    return Counts{registry_count("dnsbs.dedup.admitted"), registry_count("dnsbs.sensor.records"),
                  registry_count("dnsbs.features.rows"), registry_count("dnsbs.features.rows_reused"),
                  registry_count("dnsbs.ml.split_candidates"),
                  registry_count("dnsbs.ml.forest_fits")};
  }
  Counts operator-(const Counts& o) const {
    return Counts{admitted - o.admitted, records - o.records, rows - o.rows,
                  reused - o.reused,     splits - o.splits,   fits - o.fits};
  }
  bool operator==(const Counts&) const = default;
};

}  // namespace

void add_layer_metrics(const LayerMetrics& m, Report& r) {
  r.add("dns.parse.busy_s", m.parse_busy_s, "s");
  r.add("dns.parse.ns_per_line", m.parse_ns_per_line, "ns");
  r.add("dns.parse.skipped", m.parse_skipped, "count");
  r.add("dns.decode.ns_per_packet", m.decode_ns_per_packet, "ns");
  r.add("dns.decode.accepted_frac", m.decode_accepted_frac, "ratio");
  r.add("serve.udp.received_frac", m.udp_received_frac, "ratio");
  r.add("serve.intake.queue_dropped", m.queue_dropped, "count");
  r.add("serve.intake.queue_depth_peak", m.queue_depth_peak, "count");
  r.add("serve.intake.wait_ns_p50", m.wait_ns_p50, "ns");
  r.add("serve.sustained_rps", m.sustained_rps, "records/s");
  r.add("analysis.offer.ns_p50", m.offer_ns_p50, "ns");
  r.add("analysis.offer.ns_tail", m.offer_ns_tail, "ns");
  r.add("analysis.close.ms_p50", m.close_ms_p50, "ms");
  r.add("analysis.window.ms_p50", m.window_ms_p50, "ms");
  r.add("util.jobs.close_depth_peak", m.close_depth_peak, "count");
  r.add("util.jobs.export_depth_peak", m.export_depth_peak, "count");
  r.add("core.ingest.busy_s", m.ingest_busy_s, "s");
  r.add("core.ingest.ns_per_record", m.ingest_ns_per_record, "ns");
  r.add("core.dedup.admitted_frac", m.admitted_frac, "ratio");
  r.add("core.features.busy_s", m.features_busy_s, "s");
  r.add("core.features.us_per_row", m.features_us_per_row, "us");
  r.add("core.features.reuse_frac", m.reuse_frac, "ratio");
  r.add("core.state.originators", m.originators, "count");
  r.add("core.state.dedup_entries", m.dedup_entries, "count");
  r.add("ml.fit.busy_s", m.fit_busy_s, "s");
  r.add("ml.fit.count", m.fit_count, "count");
  r.add("ml.fit.split_candidates", m.split_candidates, "count");
  r.add("ml.classify.ns_per_row", m.classify_ns_per_row, "ns");
  r.add("window_ms_tail", m.window_ms_tail, "ms");
  r.add("loadgen.late_ms_tail", m.late_ms_tail, "ms");
  r.add("trace.overhead_frac", m.overhead_frac, "ratio");
}

std::unique_ptr<sim::Scenario> make_world(const Args& args) {
  return std::make_unique<sim::Scenario>(sim::jp_ditl_config(args.seed, args.scale));
}

std::string load_input(const std::string& path) {
  std::string text = read_file(path);
  std::size_t end = 0;
  for (std::size_t line = 0; line < kInputRecords; ++line) {
    end = text.find('\n', end);
    require(end != std::string::npos,
            path + " holds fewer than " + std::to_string(kInputRecords) + " records");
    ++end;
  }
  text.resize(end);
  return text;
}

std::vector<dns::QueryRecord> parse_log(const std::string& text) {
  MemoryBuf buf(text);
  std::istream in(&buf);
  return dns::read_all(in);
}

labeling::GroundTruth sample_labels(const sim::Scenario& world,
                                    std::span<const core::FeatureVector> rows,
                                    std::uint64_t seed) {
  std::vector<std::pair<net::IPv4Addr, core::AppClass>> known;
  for (const auto& fv : rows) {
    const auto it = world.truth().find(fv.originator);
    if (it != world.truth().end()) known.emplace_back(it->first, it->second);
  }
  require(known.size() >= kLabels, "fewer than " + std::to_string(kLabels) +
                                       " detected originators have a true class");
  util::Rng rng(seed ^ 0x1abe15ULL);
  for (std::size_t i = known.size() - 1; i > 0; --i) {
    std::swap(known[i], known[rng.below(i + 1)]);
  }
  labeling::GroundTruth labels;
  for (std::size_t i = 0; i < kLabels; ++i) labels.add(known[i].first, known[i].second);
  return labels;
}

std::uint64_t digest_rows(std::span<const core::FeatureVector> rows) {
  Digest d;
  for (const auto& fv : rows) {
    d.value(fv.originator.value());
    d.value(fv.footprint);
    for (const double v : fv.statics) d.value(v);
    for (const double v : fv.dynamics) d.value(v);
  }
  return d.h;
}

// ---------------------------------------------------------------- replay_cold

namespace {

struct ReplayPass {
  double seconds = 0;
  std::uint64_t rows_digest = 0;
  std::uint64_t classes_digest = 0;
  std::size_t records = 0;
  std::size_t skipped = 0;
  std::vector<core::FeatureVector> rows;
  Counts counts;
  std::size_t originators = 0;
  std::size_t dedup_entries = 0;
};

ReplayPass replay_pass(const std::string& text, const sim::Scenario& world,
                       const labeling::GroundTruth* labels, std::uint64_t seed,
                       Tracer& tracer) {
  ReplayPass p;
  const Counts before = tracer.enabled ? Counts::now() : Counts{};
  const std::int64_t t0 = now_ns();
  {
    auto pass = tracer.span("bench.pass");
    core::Sensor sensor(core::SensorConfig{}, world.plan().as_db(), world.plan().geo_db(),
                        world.naming());
    std::vector<dns::QueryRecord> records;
    {
      auto s = tracer.span("dns.parse");
      MemoryBuf buf(text);
      std::istream in(&buf);
      dns::QueryLogReader reader(in);
      while (auto r = reader.next()) records.push_back(*r);
      p.skipped = reader.skipped();
    }
    {
      auto s = tracer.span("core.ingest");
      sensor.ingest_all(records);
    }
    {
      auto s = tracer.span("core.features");
      p.rows = sensor.extract_features();
    }
    if (labels) {
      ml::ForestConfig fc;
      fc.n_trees = 50;
      fc.seed = seed;
      ml::RandomForest model(fc);
      {
        auto s = tracer.span("ml.fit");
        const auto [train, used] = labels->join(p.rows);
        model.fit(train);
      }
      std::vector<core::ClassifiedOriginator> classified;
      {
        auto s = tracer.span("ml.classify");
        classified = core::classify_all(p.rows, model);
      }
      p.classes_digest = digest_classes(classified);
    }
    p.records = records.size();
    p.originators = sensor.aggregator().originator_count();
    p.dedup_entries = sensor.dedup().state_size();
  }
  p.seconds = secs_since(t0);
  if (tracer.enabled) p.counts = Counts::now() - before;
  p.rows_digest = digest_rows(p.rows);
  return p;
}

}  // namespace

Outcome run_replay_cold(const Args& args) {
  Outcome out;
  const std::string text = load_input(args.log_path);
  const std::string input_path = args.work_dir + "/input.tsv";
  require(write_file(input_path, text), "cannot write " + input_path);

  std::unique_ptr<sim::Scenario> world;
  // Timed set-up builds the world anew; the old one goes first so that
  // only one is ever resident.
  const auto setup = [&] {
    world = make_world(args);
    core::Sensor sensor(core::SensorConfig{}, world->plan().as_db(), world->plan().geo_db(),
                        world->naming());
  };
  setup();
  // Set-up times, each with the calibration made right after it.
  std::vector<double> setup_s, setup_cal;

  // Label the detected originators once, from an untimed pass.
  Tracer off;
  const ReplayPass first = replay_pass(text, *world, nullptr, args.seed, off);
  const labeling::GroundTruth labels = sample_labels(*world, first.rows, args.seed);

  // The rows must match `dnsbs_cli analyze --csv` on the same log.
  const std::string csv_path = args.work_dir + "/analyze.csv";
  const int rc = run_process({args.cli_path, "analyze", "--log", input_path, "--scenario",
                              "jp", "--scale", std::to_string(args.scale), "--seed",
                              std::to_string(args.seed), "--csv", csv_path},
                             "");
  require(rc == 0, "dnsbs_cli analyze failed");
  require(read_file(csv_path) == render_csv(first.rows),
          "feature rows differ from dnsbs_cli analyze --csv");

  Tracer tracer;
  std::vector<double> untraced, traced, calibration_s;
  std::vector<ReplayPass> traced_passes;
  std::uint64_t classes_digest = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; secs_since(start) < args.seconds || untraced.size() < 3; ++i) {
    tracer.enabled = args.trace && i % 2 == 1;
    if (i % 3 == 0) {
      world.reset();
      setup_s.push_back(time_seconds(setup));
    }
    const double cal = calibrate();
    if (setup_cal.size() < setup_s.size()) setup_cal.push_back(cal);
    ReplayPass p = replay_pass(text, *world, &labels, args.seed, tracer);
    require(p.rows_digest == first.rows_digest, "feature rows changed between passes");
    if (classes_digest == 0) classes_digest = p.classes_digest;
    require(p.classes_digest == classes_digest, "classes changed between passes");
    out.attempted += p.records + p.skipped;
    out.failed += p.skipped;
    (tracer.enabled ? traced : untraced).push_back(p.seconds);
    if (!tracer.enabled) calibration_s.push_back(cal);
    if (tracer.enabled) {
      require(p.counts.reused == 0, "replay_cold reused feature rows: extraction was not cold");
      if (!traced_passes.empty()) {
        require(p.counts == traced_passes.front().counts, "registry counts differ between passes");
      }
      p.rows.clear();
      traced_passes.push_back(std::move(p));
    }
  }

  const double records = static_cast<double>(first.records);
  const double pass_s = normalized_seconds(untraced, calibration_s, kPassesPerStretch);
  std::vector<double> ms;
  for (const double s : untraced) ms.push_back(s * 1e3);
  const Tail tail = tail_of(ms);
  std::printf("replay_cold: %zu records, %zu rows, %zu labels, %zu passes; window = one pass; "
              "window_ms_tail = p%.1f of %zu passes = %.3f ms\n",
              first.records, first.rows.size(), labels.size(), untraced.size(),
              tail.percentile, tail.samples, tail.value);
  std::printf("replay_cold: pass %.3f ms as measured, calibration %.3f ms, pass at the "
              "reference speed %.3f ms\n",
              mean_of_medians(untraced, kPassesPerStretch) * 1e3,
              mean_of_medians(calibration_s, kPassesPerStretch) * 1e3, pass_s * 1e3);
  if (!args.trace) {
    out.report.add("setup_s", normalized_seconds(setup_s, setup_cal, kPassesPerStretch), "s");
    // A pass emits one window, so the window time is the pass time; both
    // are at the reference speed (normalized_seconds).
    out.report.add("records_per_s", records / pass_s, "records/s");
    out.report.add("window_ms_p50", pass_s * 1e3, "ms");
    out.report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  LayerMetrics m;
  m.window_ms_tail = tail.value;
  const double n = static_cast<double>(traced_passes.size());
  const ReplayPass& tp = traced_passes.front();
  m.parse_busy_s = tracer.total_seconds("dns.parse") / n;
  m.parse_ns_per_line = ratio(m.parse_busy_s * 1e9, records + static_cast<double>(tp.skipped));
  m.parse_skipped = static_cast<double>(tp.skipped);
  m.ingest_busy_s = tracer.total_seconds("core.ingest") / n;
  m.ingest_ns_per_record = ratio(m.ingest_busy_s * 1e9, records);
  m.admitted_frac = ratio(static_cast<double>(tp.counts.admitted), records);
  m.features_busy_s = tracer.total_seconds("core.features") / n;
  m.features_us_per_row = ratio(m.features_busy_s * 1e6, static_cast<double>(tp.counts.rows));
  m.reuse_frac = ratio(static_cast<double>(tp.counts.reused), static_cast<double>(tp.counts.rows));
  m.originators = static_cast<double>(tp.originators);
  m.dedup_entries = static_cast<double>(tp.dedup_entries);
  m.fit_busy_s = tracer.total_seconds("ml.fit") / n;
  m.fit_count = static_cast<double>(tp.counts.fits);
  m.split_candidates = static_cast<double>(tp.counts.splits);
  m.classify_ns_per_row =
      ratio(tracer.total_seconds("ml.classify") / n * 1e9, static_cast<double>(tp.counts.rows));
  m.overhead_frac = quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0;
  std::printf("replay_cold traced: %zu traced / %zu untraced passes; counts per pass: "
              "admitted=%llu of %zu records, rows=%llu reused=%llu, split_candidates=%llu\n",
              traced.size(), untraced.size(), static_cast<unsigned long long>(tp.counts.admitted),
              first.records, static_cast<unsigned long long>(tp.counts.rows),
              static_cast<unsigned long long>(tp.counts.reused),
              static_cast<unsigned long long>(tp.counts.splits));
  report_layers(tracer, "bench.pass", out.report);
  add_layer_metrics(m, out.report);
  tracer.write_chrome(args.work_dir + "/trace_replay_cold.json");
  return out;
}

// ------------------------------------------------------------- retrain_hourly

namespace {

analysis::WindowedPipelineConfig retrain_config(std::uint64_t seed) {
  analysis::WindowedPipelineConfig cfg;
  cfg.seed = seed;
  cfg.carry_forward = true;
  return cfg;
}

struct RetrainPass {
  double seconds = 0;
  std::vector<double> window_ms;
  std::uint64_t digest = 0;
  Counts counts;
};

/// One pass through the pipeline: a fresh WindowedPipeline, the labels
/// installed once, then process_window per hour.
RetrainPass pipeline_pass(const std::vector<std::vector<dns::QueryRecord>>& windows,
                          const sim::Scenario& world, const labeling::GroundTruth& labels,
                          std::uint64_t seed) {
  RetrainPass p;
  analysis::WindowedPipeline pipeline(retrain_config(seed), world.plan().as_db(),
                                      world.plan().geo_db(), world.naming());
  pipeline.set_labels(labels);
  const Counts before = Counts::now();
  Digest d;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::int64_t t0 = now_ns();
    const auto& result = pipeline.process_window(
        windows[w], util::SimTime::hours(static_cast<std::int64_t>(w)),
        util::SimTime::hours(static_cast<std::int64_t>(w + 1)));
    const double secs = secs_since(t0);
    p.seconds += secs;
    p.window_ms.push_back(secs * 1e3);
    d.value(digest_result(result));
  }
  p.counts = Counts::now() - before;
  p.digest = d.h;
  return p;
}

/// The same pass decomposed into the public calls process_window makes,
/// each wrapped in a span: sensor ingest, carry-forward extraction, the
/// retrain gate and fit, and per-row classification.  Its digest must equal
/// the pipeline's, which shows the decomposition does the same work.
RetrainPass traced_pass(const std::vector<std::vector<dns::QueryRecord>>& windows,
                        const sim::Scenario& world, const labeling::GroundTruth& labels,
                        std::uint64_t seed, Tracer& tracer) {
  RetrainPass p;
  const auto cfg = retrain_config(seed);
  const auto cache = std::make_shared<core::FeatureExtractionCache>();
  std::unique_ptr<ml::RandomForest> model;
  const Counts before = Counts::now();
  Digest d;
  const std::int64_t t0 = now_ns();
  {
    auto pass = tracer.span("bench.pass");
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const std::int64_t w0 = now_ns();
      auto window = tracer.span("analysis.window");
      analysis::WindowResult result;
      result.index = w;
      result.start = util::SimTime::hours(static_cast<std::int64_t>(w));
      result.end = util::SimTime::hours(static_cast<std::int64_t>(w + 1));
      core::Sensor sensor(cfg.sensor, world.plan().as_db(), world.plan().geo_db(),
                          world.naming());
      sensor.set_feature_cache(cache);
      {
        auto s = tracer.span("core.ingest");
        sensor.ingest_all(windows[w]);
      }
      std::vector<core::FeatureVector> rows;
      {
        auto s = tracer.span("core.features");
        rows = sensor.extract_features();
        sensor.publish_metrics();
      }
      {
        auto s = tracer.span("ml.fit");
        auto [train, used] = labels.join(rows);
        std::size_t populated = 0;
        for (const std::size_t c : train.class_counts()) {
          if (c >= cfg.min_per_class) ++populated;
        }
        result.retrained = populated >= cfg.min_classes;
        if (result.retrained) {
          ml::ForestConfig fc = cfg.forest;
          fc.seed = cfg.seed ^ (0x9e3779b97f4a7c15ULL * (w + 1));
          model = std::make_unique<ml::RandomForest>(fc);
          model->fit(train);
        }
      }
      if (model) {
        auto s = tracer.span("ml.classify");
        for (const auto& fv : rows) {
          const auto [cls, confidence] = model->predict_with_confidence(fv.row());
          result.classes[fv.originator] = static_cast<core::AppClass>(cls);
          result.footprints[fv.originator] = fv.footprint;
          const auto bucket = std::min(analysis::kConfidenceBuckets - 1,
                                       static_cast<std::size_t>(confidence * 10.0));
          ++result.confidence_hist[bucket];
        }
      }
      d.value(digest_result(result));
      p.window_ms.push_back(secs_since(w0) * 1e3);
    }
  }
  p.seconds = secs_since(t0);
  p.counts = Counts::now() - before;
  p.digest = d.h;
  return p;
}

}  // namespace

Outcome run_retrain_hourly(const Args& args) {
  Outcome out;
  const std::vector<dns::QueryRecord> records = parse_log(load_input(args.log_path));
  require(records.size() == kInputRecords, "unparsable records in " + args.log_path);

  // Hour buckets, in log order (untimed: the records arrive parsed).
  std::vector<std::vector<dns::QueryRecord>> windows;
  for (const auto& r : records) {
    const auto hour = static_cast<std::size_t>(std::max<std::int64_t>(0, r.time.secs() / 3600));
    if (windows.size() <= hour) windows.resize(hour + 1);
    windows[hour].push_back(r);
  }

  std::unique_ptr<sim::Scenario> world = make_world(args);
  labeling::GroundTruth labels;
  {
    core::Sensor whole(core::SensorConfig{}, world->plan().as_db(), world->plan().geo_db(),
                       world->naming());
    whole.ingest_all(records);
    labels = sample_labels(*world, whole.extract_features(), args.seed);
  }

  const auto setup = [&] {
    world = make_world(args);
    analysis::WindowedPipeline pipeline(retrain_config(args.seed), world->plan().as_db(),
                                        world->plan().geo_db(), world->naming());
    pipeline.set_labels(labels);
  };
  // Set-up times, each with the calibration made right after it.
  std::vector<double> setup_s, setup_cal;

  Tracer tracer;
  std::vector<double> untraced, traced, window_ms, pass_window_ms, calibration_s;
  std::uint64_t digest = 0;
  Counts counts;
  std::size_t retrains = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; secs_since(start) < args.seconds || untraced.size() < 3; ++i) {
    tracer.enabled = args.trace && i % 2 == 1;
    if (i % 2 == 0) {
      world.reset();
      setup_s.push_back(time_seconds(setup));
    }
    const double cal = calibrate();
    if (setup_cal.size() < setup_s.size()) setup_cal.push_back(cal);
    const RetrainPass p = tracer.enabled ? traced_pass(windows, *world, labels, args.seed, tracer)
                                         : pipeline_pass(windows, *world, labels, args.seed);
    if (digest == 0) {
      digest = p.digest;
      counts = p.counts;
      retrains = p.counts.fits;
    }
    require(p.digest == digest, "WindowResult digest changed between passes");
    require(p.counts == counts, "registry counts differ between passes");
    out.attempted += records.size();
    out.failed += records.size() - p.counts.records;
    (tracer.enabled ? traced : untraced).push_back(p.seconds);
    if (!tracer.enabled) {
      window_ms.insert(window_ms.end(), p.window_ms.begin(), p.window_ms.end());
      pass_window_ms.push_back(quantile(p.window_ms, 0.5));
      calibration_s.push_back(cal);
    }
  }

  const double n_records = static_cast<double>(records.size());
  // The median window of each pass, and the pass time, at the reference
  // speed (normalized_seconds).
  const double window_ms_p50 =
      normalized_seconds(pass_window_ms, calibration_s, kPassesPerStretch);
  const double pass_s = normalized_seconds(untraced, calibration_s, kPassesPerStretch);
  const Tail tail = tail_of(window_ms);
  std::printf("retrain_hourly: %zu records in %zu windows, %zu labels, %zu retrains per pass, "
              "%zu passes; window_ms_tail = p%.2f of %zu windows = %.3f ms\n",
              records.size(), windows.size(), labels.size(), retrains, untraced.size(),
              tail.percentile, tail.samples, tail.value);
  std::printf("retrain_hourly: pass %.3f ms and median window %.3f ms as measured, "
              "calibration %.3f ms; at the reference speed %.3f ms and %.3f ms\n",
              mean_of_medians(untraced, kPassesPerStretch) * 1e3,
              mean_of_medians(pass_window_ms, kPassesPerStretch),
              mean_of_medians(calibration_s, kPassesPerStretch) * 1e3, pass_s * 1e3,
              window_ms_p50);
  if (!args.trace) {
    out.report.add("setup_s", normalized_seconds(setup_s, setup_cal, kPassesPerStretch), "s");
    out.report.add("records_per_s", n_records / pass_s, "records/s");
    out.report.add("window_ms_p50", window_ms_p50, "ms");
    out.report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  LayerMetrics m;
  const double n = static_cast<double>(traced.size());
  m.window_ms_p50 = quantile(window_ms, 0.5);
  m.window_ms_tail = tail.value;
  m.ingest_busy_s = tracer.total_seconds("core.ingest") / n;
  m.ingest_ns_per_record = ratio(m.ingest_busy_s * 1e9, n_records);
  m.admitted_frac = ratio(static_cast<double>(counts.admitted), static_cast<double>(counts.records));
  m.features_busy_s = tracer.total_seconds("core.features") / n;
  m.features_us_per_row = ratio(m.features_busy_s * 1e6, static_cast<double>(counts.rows));
  m.reuse_frac = ratio(static_cast<double>(counts.reused), static_cast<double>(counts.rows));
  m.fit_busy_s = tracer.total_seconds("ml.fit") / n;
  m.fit_count = static_cast<double>(counts.fits);
  m.split_candidates = static_cast<double>(counts.splits);
  m.classify_ns_per_row =
      ratio(tracer.total_seconds("ml.classify") / n * 1e9, static_cast<double>(counts.rows));
  m.overhead_frac = quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0;
  std::printf("retrain_hourly traced: %zu traced / %zu untraced passes; counts per pass: "
              "admitted=%llu of %llu records, rows=%llu reused=%llu, fits=%llu, "
              "split_candidates=%llu\n",
              traced.size(), untraced.size(), static_cast<unsigned long long>(counts.admitted),
              static_cast<unsigned long long>(counts.records),
              static_cast<unsigned long long>(counts.rows),
              static_cast<unsigned long long>(counts.reused),
              static_cast<unsigned long long>(counts.fits),
              static_cast<unsigned long long>(counts.splits));
  report_layers(tracer, "bench.pass", out.report);
  add_layer_metrics(m, out.report);
  tracer.write_chrome(args.work_dir + "/trace_retrain_hourly.json");
  return out;
}

}  // namespace perfbench
