// Simulation hot-path microbenchmark: World construction cost with private
// vs shared immutable assets (road + DBC), the Polyline::project geometry
// kernel (hinted single, batched project_many, and full scan — each against
// the pre-SoA scalar implementation kept below as the baseline), the
// pub/sub bus publish path (zero-copy typed dispatch and the lazily
// serialized tapped path, each against the pre-refactor
// serialize-everything bus kept below as the baseline), World::step()
// time, and full simulation wall-clock. Together with bench_codec this
// quantifies the campaign-scale optimizations: thousands of Monte-Carlo
// Worlds per table share one road/database, step allocation-free over a
// vectorizable geometry kernel, and exchange messages without touching a
// serializer.
//
// Usage: bench_step [--sims N] [--format text|csv|json] [--out PATH]

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <type_traits>
#include <vector>

#include "cli/args.hpp"
#include "cli/campaigns.hpp"
#include "cli/report.hpp"
#include "exp/campaign.hpp"
#include "exp/realtime.hpp"
#include "geom/polyline.hpp"
#include "msg/bus.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace scaa;
using util::seconds_since;

exp::CampaignItem bench_item(std::uint64_t seed) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = seed;
  return item;
}

// --- legacy projection baseline ---------------------------------------------

/// The pre-SoA windowed projection (scalar loop, one division per segment,
/// sqrt + normalized() per improvement, fixed +/-8 window with an edge
/// fallback), reconstructed from the polyline's public points. Kept in the
/// bench as the permanent baseline the `project_*` rows are measured
/// against, so the speedup column keeps meaning something after the old
/// implementation is gone from src/.
class LegacyProjector {
 public:
  explicit LegacyProjector(const geom::Polyline& line) {
    pts_.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i)
      pts_.push_back(line.point(i));
    cum_.resize(pts_.size());
    cum_[0] = 0.0;
    for (std::size_t i = 1; i < pts_.size(); ++i)
      cum_[i] = cum_[i - 1] + geom::distance(pts_[i - 1], pts_[i]);
    inv_mean_seg_ =
        static_cast<double>(pts_.size() - 1) / cum_.back();
  }

  geom::Polyline::Projection project(geom::Vec2 p,
                                     double hint_s) const noexcept {
    std::size_t lo = 0;
    std::size_t hi = pts_.size() - 1;
    if (hint_s >= 0.0 && pts_.size() > 8) {
      const std::size_t center =
          segment_index(std::min(hint_s, cum_.back()));
      const std::size_t window = 8;
      lo = center > window ? center - window : 0;
      hi = std::min(center + window + 1, pts_.size() - 1);
    }
    auto best = geom::Polyline::Projection{};
    double best_dist_sq = std::numeric_limits<double>::max();
    for (std::size_t i = lo; i < hi; ++i) {
      const geom::Vec2 a = pts_[i];
      const geom::Vec2 ab = pts_[i + 1] - a;
      const double len_sq = ab.norm_sq();
      double t = len_sq > 0.0 ? (p - a).dot(ab) / len_sq : 0.0;
      t = std::clamp(t, 0.0, 1.0);
      const geom::Vec2 c = a + ab * t;
      const double d_sq = (p - c).norm_sq();
      if (d_sq < best_dist_sq) {
        best_dist_sq = d_sq;
        best.closest = c;
        best.s = cum_[i] + std::sqrt(len_sq) * t;
        best.lateral = ab.normalized().cross(p - c);
      }
    }
    if (hint_s >= 0.0 && pts_.size() > 8) {
      const bool stale_low = lo > 0 && best.s <= cum_[lo] + 1e-9;
      const bool stale_high =
          hi < pts_.size() - 1 && best.s >= cum_[hi] - 1e-9;
      if (stale_low || stale_high) return project(p, -1.0);
    }
    return best;
  }

 private:
  std::size_t segment_index(double s) const noexcept {
    const std::size_t last = pts_.size() - 2;
    std::size_t i = 0;
    const double guess = s * inv_mean_seg_;
    if (guess >= static_cast<double>(last))
      i = last;
    else if (guess > 0.0)
      i = static_cast<std::size_t>(guess);
    while (i < last && cum_[i + 1] <= s) ++i;
    while (i > 0 && cum_[i] > s) --i;
    return i;
  }

  std::vector<geom::Vec2> pts_;
  std::vector<double> cum_;
  double inv_mean_seg_ = 0.0;
};

// --- legacy pub/sub baseline ------------------------------------------------

/// The pre-refactor PubSubBus, reconstructed as the permanent in-bench
/// baseline the `bus_publish_*` rows are measured against: std::map
/// subscription/sequence tables, eager serialization of every publish into
/// a fresh owning frame, typed subscribers decoding the bytes per
/// delivery, and a snapshot copy of the handler list per dispatch.
class LegacyPubSubBus {
 public:
  struct Frame {
    msg::Topic topic{};
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
  };
  using RawHandler = std::function<void(const Frame&)>;

  std::uint64_t subscribe_raw(msg::Topic topic, RawHandler handler) {
    const std::uint64_t id = next_id_++;
    subs_[topic].push_back({id, std::move(handler)});
    return id;
  }

  template <typename M>
  std::uint64_t subscribe(std::function<void(const M&)> handler) {
    return subscribe_raw(msg::TopicOf<M>::value,
                         [h = std::move(handler)](const Frame& frame) {
                           M m{};
                           msg::deserialize(frame.payload, m);
                           h(m);
                         });
  }

  template <typename M>
  void publish(const M& m) {
    Frame frame;
    frame.topic = msg::TopicOf<M>::value;
    frame.sequence = ++sequences_[frame.topic];
    frame.payload = msg::serialize(m);
    const auto it = subs_.find(frame.topic);
    if (it == subs_.end()) return;
    const auto snapshot = it->second;
    for (const auto& sub : snapshot) sub.handler(frame);
  }

 private:
  struct Subscription {
    std::uint64_t id;
    RawHandler handler;
  };
  std::map<msg::Topic, std::vector<Subscription>> subs_;
  std::map<msg::Topic, std::uint64_t> sequences_;
  std::uint64_t next_id_ = 1;
};

/// Typed delivery checksum: every subscriber folds one field of every
/// message it receives into the sum, in delivery order, so the fast bus
/// must reproduce the legacy bus's sum bit-for-bit.
struct BusSinks {
  double sum = 0.0;
  std::uint64_t count = 0;
};

template <typename Bus>
void attach_typed_sinks(Bus& bus, BusSinks& s) {
  bus.template subscribe<msg::CarState>(
      [&s](const msg::CarState& m) { s.sum += m.speed; ++s.count; });
  bus.template subscribe<msg::CarControl>(
      [&s](const msg::CarControl& m) { s.sum += m.accel; ++s.count; });
  bus.template subscribe<msg::ControlsState>([&s](const msg::ControlsState& m) {
    s.sum += static_cast<double>(m.alert_count);
    ++s.count;
  });
  bus.template subscribe<msg::GpsLocationExternal>(
      [&s](const msg::GpsLocationExternal& m) { s.sum += m.speed; ++s.count; });
  bus.template subscribe<msg::ModelV2>(
      [&s](const msg::ModelV2& m) { s.sum += m.left_lane_line; ++s.count; });
  bus.template subscribe<msg::RadarState>([&s](const msg::RadarState& m) {
    s.sum += m.lead_distance;
    ++s.count;
  });
}

std::uint64_t fnv1a_accumulate(std::uint64_t h, std::uint64_t sequence,
                               const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (std::size_t i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(sequence >> (8 * i));
    h *= kPrime;
  }
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_step",
                      "simulation hot-path benchmark: World construction "
                      "(private vs shared assets), step(), full runs");
  args.add_int("--sims", 20, "full simulations (and 5x constructions)", 1,
               100000);
  args.add_choice("--format", "text", {"text", "csv", "json"},
                  "output format");
  args.add_string("--out", "-", "output path ('-' = stdout)");
  if (const int code = args.parse_or_exit_code(argc, argv); code >= 0)
    return code;
  const auto sims = static_cast<std::size_t>(args.get_int("--sims"));
  const std::size_t constructions = sims * 5;
  const cli::Format format = cli::parse_format(args.get_string("--format"));

  const exp::WorldAssets assets = exp::WorldAssets::make_default();

  // --- construction: private assets (road + DBC rebuilt per World) -------
  const auto t_owned = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < constructions; ++i) {
    sim::World world(exp::world_config_for(bench_item(i + 1)));
    if (world.time() != 0.0) return 1;  // keep the loop observable
  }
  const double owned_s = seconds_since(t_owned);

  // --- construction: shared immutable assets -----------------------------
  const auto t_shared = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < constructions; ++i) {
    sim::World world(exp::world_config_for(bench_item(i + 1), assets));
    if (world.time() != 0.0) return 1;
  }
  const double shared_s = seconds_since(t_shared);

  // --- reset: re-arm one resident World per item --------------------------
  double reset_s = 0.0;
  {
    sim::World world(exp::world_config_for(bench_item(1), assets));
    const auto t_reset = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < constructions; ++i) {
      world.reset(exp::world_config_for(bench_item(i + 1), assets));
      if (world.time() != 0.0) return 1;
    }
    reset_s = seconds_since(t_reset);
  }

  // --- Polyline::project kernel: hinted single, batched, full scan -------
  // Each fast row is timed against the legacy scalar implementation on the
  // identical query stream; the checksum comparison doubles as an in-bench
  // differential test (the kernels must agree exactly on this road).
  const geom::Polyline& line = assets.road->reference();
  const LegacyProjector legacy(line);
  // Four lanes: the World's Ego + lead + trailing + neighbor. The stream
  // comes from the same generator as scaa_campaign bench's kernel row
  // (cli::projection_workload), tick-major so the batched sweep consumes
  // natural spans.
  constexpr std::size_t kLanes = 4;
  const std::size_t proj_ticks = std::max<std::size_t>(sims, 10) * 5000;
  const std::vector<geom::Vec2> proj_points =
      cli::projection_workload(line, proj_ticks, kLanes);
  const std::size_t proj_ops = proj_points.size();

  double legacy_hint[kLanes] = {-1.0, -1.0, -1.0, -1.0};
  double legacy_sum = 0.0;
  const auto t_legacy = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < proj_ticks; ++t) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto proj =
          legacy.project(proj_points[t * kLanes + l], legacy_hint[l]);
      legacy_hint[l] = proj.s;
      legacy_sum += proj.lateral;
    }
  }
  const double legacy_s = seconds_since(t_legacy);

  double single_hint[kLanes] = {-1.0, -1.0, -1.0, -1.0};
  double single_sum = 0.0;
  const auto t_single = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < proj_ticks; ++t) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto proj =
          line.project(proj_points[t * kLanes + l], single_hint[l]);
      single_hint[l] = proj.s;
      single_sum += proj.lateral;
    }
  }
  const double single_s = seconds_since(t_single);

  std::vector<double> batch_hints(kLanes, -1.0);
  std::vector<geom::Polyline::Projection> batch_out(kLanes);
  double batch_sum = 0.0;
  const auto t_batch = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < proj_ticks; ++t) {
    line.project_many(
        {proj_points.data() + t * kLanes, kLanes}, batch_hints,
        batch_out);
    for (std::size_t l = 0; l < kLanes; ++l) {
      batch_hints[l] = batch_out[l].s;
      batch_sum += batch_out[l].lateral;
    }
  }
  const double batch_s = seconds_since(t_batch);

  if (single_sum != legacy_sum || batch_sum != legacy_sum) {
    std::cerr << "bench_step: projection kernels disagree with the legacy "
                 "baseline (single "
              << single_sum << ", batched " << batch_sum << ", legacy "
              << legacy_sum << ")\n";
    return 1;
  }

  const std::size_t proj_full_ops = std::min<std::size_t>(proj_ops, 2000);
  double proj_full_ref_sum = 0.0;
  const auto t_proj_full_ref = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < proj_full_ops; ++i)
    proj_full_ref_sum += line.project_reference(proj_points[i]).lateral;
  const double proj_full_ref_s = seconds_since(t_proj_full_ref);

  double proj_full_sum = 0.0;
  const auto t_proj_full = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < proj_full_ops; ++i)
    proj_full_sum += line.project(proj_points[i], -1.0).lateral;
  const double proj_full_s = seconds_since(t_proj_full);

  if (proj_full_sum != proj_full_ref_sum) {
    std::cerr << "bench_step: full-scan projection disagrees with the "
                 "reference\n";
    return 1;
  }

  // --- pub/sub bus: zero-copy typed dispatch vs the legacy bus ------------
  // Identical deterministic publish stream (cli::bus_tick_workload, shared
  // with scaa_campaign bench's PubSubBus::publish row) against identical
  // subscriber sets; the typed checksums must agree bit-for-bit with the
  // legacy serialize-everything bus, and the tapped run's wire hash must
  // match an eager serialize(m) oracle byte-for-byte — the in-bench
  // differential test for the lazy path.
  const std::uint64_t bus_ticks = std::max<std::size_t>(sims, 10) * 5000;
  const std::uint64_t bus_ops = cli::bus_tick_workload_count(bus_ticks);

  // Oracle: what the old eager bus put on the wire, per topic counter.
  std::uint64_t oracle_hash = kFnvSeed;
  {
    std::array<std::uint64_t, msg::kTopicCount> seqs{};
    cli::bus_tick_workload(bus_ticks, [&](const auto& m) {
      using M = std::decay_t<decltype(m)>;
      const auto bytes = msg::serialize(m);
      oracle_hash = fnv1a_accumulate(
          oracle_hash, ++seqs[msg::topic_index(msg::TopicOf<M>::value)],
          bytes.data(), bytes.size());
    });
  }

  BusSinks legacy_sinks;
  double bus_legacy_s = 0.0;
  {
    LegacyPubSubBus bus;
    attach_typed_sinks(bus, legacy_sinks);
    const auto t0 = std::chrono::steady_clock::now();
    cli::bus_tick_workload(bus_ticks,
                           [&bus](const auto& m) { bus.publish(m); });
    bus_legacy_s = seconds_since(t0);
  }

  BusSinks typed_sinks;
  double bus_typed_s = 0.0;
  {
    msg::PubSubBus bus;
    attach_typed_sinks(bus, typed_sinks);
    const auto t0 = std::chrono::steady_clock::now();
    cli::bus_tick_workload(bus_ticks,
                           [&bus](const auto& m) { bus.publish(m); });
    bus_typed_s = seconds_since(t0);
  }

  BusSinks tapped_sinks;
  std::uint64_t tapped_hash = kFnvSeed;
  double bus_tapped_s = 0.0;
  {
    msg::PubSubBus bus;
    attach_typed_sinks(bus, tapped_sinks);
    // A record-all style tap on every topic (the eavesdropper + drive-log
    // shape) forces the lazy wire path on every publish.
    for (std::size_t i = 1; i <= msg::kTopicCount; ++i) {
      bus.subscribe_raw(static_cast<msg::Topic>(i),
                        [&tapped_hash](const msg::WireFrame& f) {
                          tapped_hash = fnv1a_accumulate(
                              tapped_hash, f.sequence, f.payload.data(),
                              f.payload.size());
                        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    cli::bus_tick_workload(bus_ticks,
                           [&bus](const auto& m) { bus.publish(m); });
    bus_tapped_s = seconds_since(t0);
  }

  if (typed_sinks.sum != legacy_sinks.sum ||
      typed_sinks.count != legacy_sinks.count ||
      tapped_sinks.sum != legacy_sinks.sum ||
      tapped_sinks.count != legacy_sinks.count) {
    std::cerr << "bench_step: typed bus dispatch disagrees with the legacy "
                 "baseline (legacy "
              << legacy_sinks.sum << "/" << legacy_sinks.count << ", typed "
              << typed_sinks.sum << "/" << typed_sinks.count << ", tapped "
              << tapped_sinks.sum << "/" << tapped_sinks.count << ")\n";
    return 1;
  }
  if (tapped_hash != oracle_hash) {
    std::cerr << "bench_step: lazily serialized frames are not "
                 "byte-identical to the eager serialization oracle\n";
    return 1;
  }

  // --- step() throughput -------------------------------------------------
  std::uint64_t steps = 0;
  const auto t_step = std::chrono::steady_clock::now();
  {
    sim::World world(exp::world_config_for(bench_item(5), assets));
    while (world.step()) ++steps;
  }
  double step_s = seconds_since(t_step);
  for (std::uint64_t seed = 6; steps < 20000; ++seed) {
    const auto t_more = std::chrono::steady_clock::now();
    sim::World world(exp::world_config_for(bench_item(seed), assets));
    while (world.step()) ++steps;
    step_s += seconds_since(t_more);
  }

  // --- full simulations (construct + run + summarize) --------------------
  const auto t_full = std::chrono::steady_clock::now();
  std::size_t hazards = 0;
  for (std::size_t i = 0; i < sims; ++i) {
    sim::World world(exp::world_config_for(bench_item(i + 1), assets));
    if (world.run().any_hazard) ++hazards;
  }
  const double full_s = seconds_since(t_full);

  // --- realtime executor: tick latency and deadline wake jitter -----------
  // One simulated second of the attack-free S1 run pinned to the 100 Hz
  // deadline clock (exp/realtime.hpp). The rows quantify whether the whole
  // pipeline fits a real ECU tick budget; they are wall-clock-derived by
  // nature (scheduler-dependent), so treat them as advisory, not gating.
  exp::RealtimeReport rt;
  {
    exp::CampaignItem item;
    item.strategy = attack::StrategyKind::kNone;
    item.seed = 2022;
    sim::WorldConfig rt_cfg = exp::world_config_for(item, assets);
    rt_cfg.duration = 1.0;  // 100 ticks at the paper rig's 100 Hz
    sim::World world(rt_cfg);
    rt = exp::run_realtime(world, exp::RealtimeConfig{});
  }

  // speedup_vs_baseline: construct_* rows against the private-asset
  // construction; project_* rows against the legacy scalar kernel (hinted
  // rows) or the brute-force reference (full-scan rows); bus_publish_*
  // rows against the legacy serialize-everything bus on the identical
  // workload and typed subscriber set; 0 = no baseline.
  cli::Report report(
      "bench_step: World construction, Polyline::project kernel, "
      "PubSubBus::publish, step() and full-simulation timing",
      {"name", "ops", "unit", "time_per_op", "speedup_vs_baseline"});
  const auto per = [](double total_s, std::size_t n, double scale) {
    return n ? total_s * scale / static_cast<double>(n) : 0.0;
  };
  report.add_row({std::string("construct_private_assets"),
                  static_cast<long long>(constructions), std::string("us"),
                  per(owned_s, constructions, 1e6), 1.0});
  report.add_row({std::string("construct_shared_assets"),
                  static_cast<long long>(constructions), std::string("us"),
                  per(shared_s, constructions, 1e6),
                  shared_s > 0.0 ? owned_s / shared_s : 0.0});
  // world_construct vs world_reset: the per-simulation setup cost of a
  // fresh World vs a resident World re-armed in place.
  report.add_row({std::string("world_construct"),
                  static_cast<long long>(constructions), std::string("us"),
                  per(shared_s, constructions, 1e6), 1.0});
  report.add_row({std::string("world_reset"),
                  static_cast<long long>(constructions), std::string("us"),
                  per(reset_s, constructions, 1e6),
                  reset_s > 0.0 ? shared_s / reset_s : 0.0});
  report.add_row({std::string("project_hinted_legacy"),
                  static_cast<long long>(proj_ops), std::string("ns"),
                  per(legacy_s, proj_ops, 1e9), 1.0});
  report.add_row({std::string("project_hinted"),
                  static_cast<long long>(proj_ops), std::string("ns"),
                  per(single_s, proj_ops, 1e9),
                  single_s > 0.0 ? legacy_s / single_s : 0.0});
  report.add_row({std::string("project_many"),
                  static_cast<long long>(proj_ops), std::string("ns"),
                  per(batch_s, proj_ops, 1e9),
                  batch_s > 0.0 ? legacy_s / batch_s : 0.0});
  report.add_row({std::string("project_full_reference"),
                  static_cast<long long>(proj_full_ops), std::string("us"),
                  per(proj_full_ref_s, proj_full_ops, 1e6), 1.0});
  report.add_row({std::string("project_full"),
                  static_cast<long long>(proj_full_ops), std::string("us"),
                  per(proj_full_s, proj_full_ops, 1e6),
                  proj_full_s > 0.0 ? proj_full_ref_s / proj_full_s : 0.0});
  report.add_row({std::string("bus_publish_legacy"),
                  static_cast<long long>(bus_ops), std::string("ns"),
                  per(bus_legacy_s, bus_ops, 1e9), 1.0});
  report.add_row({std::string("bus_publish_typed"),
                  static_cast<long long>(bus_ops), std::string("ns"),
                  per(bus_typed_s, bus_ops, 1e9),
                  bus_typed_s > 0.0 ? bus_legacy_s / bus_typed_s : 0.0});
  report.add_row({std::string("bus_publish_tapped"),
                  static_cast<long long>(bus_ops), std::string("ns"),
                  per(bus_tapped_s, bus_ops, 1e9),
                  bus_tapped_s > 0.0 ? bus_legacy_s / bus_tapped_s : 0.0});
  report.add_row({std::string("world_step"), static_cast<long long>(steps),
                  std::string("us"), per(step_s, steps, 1e6), 0.0});
  report.add_row({std::string("full_simulation"),
                  static_cast<long long>(sims), std::string("ms"),
                  per(full_s, sims, 1e3), 0.0});
  // realtime_tick: mean measured tick work under the deadline executor;
  // speedup_vs_baseline holds the headroom factor (period / mean tick), so
  // values > 1 mean the pipeline fits the 100 Hz budget with room to spare.
  // realtime_wake_jitter: mean deadline-clock wake error (no baseline).
  const double tick_mean_s =
      rt.phases.empty() ? 0.0 : rt.phases[0].latency_s.mean();
  report.add_row({std::string("realtime_tick"),
                  static_cast<long long>(rt.ticks), std::string("us"),
                  tick_mean_s * 1e6,
                  tick_mean_s > 0.0 ? rt.period_s / tick_mean_s : 0.0});
  report.add_row({std::string("realtime_wake_jitter"),
                  static_cast<long long>(rt.ticks), std::string("us"),
                  rt.wake_error_s.mean() * 1e6, 0.0});

  const std::string& out_path = args.get_string("--out");
  if (out_path == "-") {
    report.write(std::cout, format);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      std::cerr << "bench_step: cannot open '" << out_path
                << "' for writing\n";
      return 1;
    }
    report.write(file, format);
  }
  std::cerr << "[bench_step] " << sims << " full sims, " << hazards
            << " with hazards\n";
  return 0;
}
