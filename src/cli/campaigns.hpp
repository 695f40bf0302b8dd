#pragma once

/// @file campaigns.hpp
/// The paper's campaigns (Table IV, Table V, Fig. 7, Fig. 8) and the §V
/// studies (ablation, defense; cli/studies.cpp) as reusable functions: each
/// builds its experiment grid, runs it through exp::run_campaign or
/// exp::run_campaign_streaming, and returns a cli::Report. scaa_campaign's
/// subcommands and the tests both call these, so the CLI binary itself is a
/// thin dispatch shell.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/strategies.hpp"
#include "cli/report.hpp"
#include "exp/campaign.hpp"
#include "geom/polyline.hpp"
#include "msg/messages.hpp"

namespace scaa::cli {

/// Deterministic projection query stream shaped like the campaign hot
/// loop: @p lanes points (one per simulated vehicle) advancing ~0.3 m per
/// tick near the centerline with +/-3 m lateral jitter, wrapping before
/// the road end. Returns ticks * lanes points, tick-major. perfbench's
/// `geom.project_op_ns` kernel and the projection differential suite both
/// draw from this one generator, so the workload the benchmark times is
/// the workload the tests prove exact.
std::vector<geom::Vec2> projection_workload(const geom::Polyline& line,
                                            std::size_t ticks,
                                            std::size_t lanes);

/// Deterministic pub/sub workload shaped like the simulator's steady
/// state: for each of @p ticks 100 Hz ticks, invokes @p publish with
/// carState, carControl and controlsState (every tick) plus
/// gpsLocationExternal, modelV2 and radarState (every 5th tick), fields
/// varying deterministically with the tick. perfbench's
/// `msg.publish_*_op_ns` kernels and the bus equivalence suite both drive
/// this one generator, so the workload the benchmark times is the
/// workload the tests prove exact and allocation-free.
template <typename Fn>
void bus_tick_workload(std::uint64_t ticks, Fn&& publish) {
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    msg::CarState cs;
    cs.mono_time = tick;
    cs.speed = 25.0 + 0.001 * static_cast<double>(tick % 977);
    cs.accel = -0.2 + 0.0005 * static_cast<double>(tick % 211);
    cs.steer_angle = 0.001 * static_cast<double>(tick % 89);
    cs.cruise_speed = 26.8224;
    cs.cruise_enabled = true;
    cs.driver_torque = 0.1 * static_cast<double>(tick % 7);
    publish(cs);
    msg::CarControl cc;
    cc.mono_time = tick;
    cc.enabled = true;
    cc.accel = -0.5 + 0.002 * static_cast<double>(tick % 499);
    cc.steer_angle = 0.0005 * static_cast<double>(tick % 97);
    publish(cc);
    msg::ControlsState st;
    st.mono_time = tick;
    st.active = true;
    st.steer_saturated = tick % 50 == 0;
    st.fcw = false;
    st.alert_count = static_cast<std::uint32_t>(tick % 3);
    publish(st);
    if (tick % 5 == 0) {
      msg::GpsLocationExternal gps;
      gps.mono_time = tick;
      gps.latitude = 38.03 + 1e-6 * static_cast<double>(tick);
      gps.longitude = -78.51 - 1e-6 * static_cast<double>(tick);
      gps.speed = cs.speed;
      gps.bearing = 0.7;
      gps.has_fix = true;
      publish(gps);
      msg::ModelV2 model;
      model.mono_time = tick;
      model.left_lane_line = 1.85;
      model.right_lane_line = -1.85;
      model.left_line_prob = 0.97;
      model.right_line_prob = 0.95;
      model.path_curvature = 8.3e-4;
      model.path_heading_error =
          -0.002 + 1e-5 * static_cast<double>(tick % 41);
      publish(model);
      msg::RadarState radar;
      radar.mono_time = tick;
      radar.lead_valid = true;
      radar.lead_distance = 60.0 - 0.01 * static_cast<double>(tick % 1000);
      radar.lead_rel_speed = -0.5 + 0.001 * static_cast<double>(tick % 313);
      radar.lead_speed = 24.0;
      publish(radar);
    }
  }
}

/// Number of messages bus_tick_workload publishes over @p ticks ticks.
constexpr std::uint64_t bus_tick_workload_count(std::uint64_t ticks) {
  return ticks * 3 + (ticks + 4) / 5 * 3;
}

/// Knobs common to all campaigns; each subcommand maps its flags here.
struct CampaignOptions {
  int reps = 1;             ///< repetitions per grid cell (paper: 20)
  std::size_t threads = 0;  ///< worker threads (0 = hardware concurrency;
                            ///< sharded: threads PER WORKER, 0 = hw/shards)
  std::uint64_t seed = 2022;  ///< base seed mixed into every simulation
  int decimate = 10;        ///< fig7 only: keep every n-th trace row
  std::string checkpoint;   ///< checkpoint path stem; empty = no checkpoint
  bool resume = false;      ///< load completed chunks from the checkpoint
  int shards = 0;        ///< table4/merge: worker processes (0/1 = off)
  int shard_index = -1;  ///< manual --shard i/N worker: 0-based slice index
  int shard_count = 0;   ///< manual --shard i/N worker: fleet size (0 = off)
  // `run` only:
  bool realtime = false;    ///< pin ticks to the deadline clock
  double period_s = 0.01;   ///< realtime tick period (100 Hz)
  double miss_budget = 1.0; ///< max tolerated overrun fraction (1 = never fail)
  std::string tap_fifo;     ///< stream WireFrame bytes here; empty = no tap
  int scenario = 1;         ///< paper scenario id (1..4)
  double duration = 50.0;   ///< simulated seconds
  // `faults` and `run` only:
  std::string fault_plan;   ///< benign fault plan file; empty = faults runs
                            ///< its built-in sweep, run injects nothing
};

/// The single options -> CampaignConfig mapping: every campaign entry
/// point goes through here, so a future config knob cannot be wired in one
/// subcommand and silently dropped in another.
exp::CampaignConfig campaign_config(const CampaignOptions& options);

/// Filesystem-safe slice token: "Random-ST+DUR" -> "random-st-dur".
std::string slice_slug(const std::string& name);

/// Checkpoint file for one campaign slice:
/// `<stem>.<slug>-<fp8>[.s<i+1>of<N>]`. The 8-hex-digit fingerprint prefix
/// makes the name collision-proof: two slices whose human-readable names
/// slug identically (e.g. "Fixed On" vs "fixed-on") still get distinct
/// files unless their grids are also identical — in which case sharing a
/// checkpoint is exactly right. The shard suffix (empty when
/// @p shard_count <= 1) separates the per-worker slice files of a sharded
/// run.
std::string slice_checkpoint_file(const std::string& stem,
                                  const std::string& slice,
                                  std::uint64_t fingerprint,
                                  std::size_t shard = 0,
                                  std::size_t shard_count = 0);

/// Throws std::runtime_error naming both slices if any two (name,
/// fingerprint) pairs map to the same checkpoint file under @p stem —
/// i.e. identical slugs AND identical short fingerprints for different
/// grids. Every checkpointing subcommand calls this on its full slice set
/// before opening anything, so a collision is a clear upfront diagnostic
/// instead of two campaigns silently interleaving one file.
void reject_slice_file_collisions(
    const std::string& stem,
    const std::vector<std::pair<std::string, std::uint64_t>>& slices);

/// One Table IV row spec (paper Table III): which strategy, whether it
/// corrupts values strategically, and its repetition multiplier.
struct Table4Strategy {
  attack::StrategyKind kind;
  bool strategic;  ///< Context-Aware corrupts strategically; others fixed
  int rep_multiplier;  ///< Random-ST+DUR: 10x reps for space coverage
};

/// The paper's Table IV strategy grid, in presentation order. The
/// in-process, sharded and merge paths all iterate this single definition
/// so they can never reproduce different experiments.
const std::vector<Table4Strategy>& table4_strategies();

/// Live per-chunk progress for the streaming runner: prints one status line
/// to @p out (null = silent) each time the campaign crosses another 10% of
/// its grid, including exactly one 100% line when it finishes — a campaign
/// that fits in a single chunk still reports its completion, and a chunk
/// that crosses several deciles at once emits one line for the latest.
exp::CampaignProgressFn decile_progress(std::ostream* out,
                                        const std::string& tag);

/// Table IV: attack-strategy comparison with an alert driver. One row per
/// strategy. @p progress (may be null) receives per-strategy status lines.
///
/// Three execution modes, selected by the options:
///  - default: run every strategy in-process (streaming runner).
///  - options.shards > 1 (coordinator): fork that many worker processes,
///    each running its deterministic slice of every strategy into its own
///    checkpoint file, multiplex their pipe progress into one decile
///    display, then merge the slice files — the returned report is
///    byte-identical to the default mode.
///  - options.shard_count > 0 (manual worker, --shard i/N): run only this
///    worker's slice in-process and return a slice summary; a later
///    `merge` folds the fleet's files into the real Table IV report.
Report table4_report(const CampaignOptions& options, std::ostream* progress);

/// `scaa_campaign merge`: fold the per-shard checkpoint slice files of a
/// sharded table4 run (coordinator or manual fleet) into the exact Table IV
/// report — byte-identical to a single-process `table4` run with the same
/// --reps/--seed. Requires options.checkpoint and options.shards.
Report table4_merge_report(const CampaignOptions& options,
                           std::ostream* progress);

/// Table V: Context-Aware attack per attack type, fixed vs. strategic value
/// corruption, driver-on paired with driver-off runs. One row per
/// (attack type, corruption mode).
Report table5_report(const CampaignOptions& options, std::ostream* progress);

/// Fig. 7: the attack-free Ego trajectory (one row per retained trace step).
Report fig7_report(const CampaignOptions& options, std::ostream* progress);

/// Fig. 8: the (start time x duration) parameter space; one row per point.
/// @p options.reps scales the overlay runs per strategy (paper: 20).
Report fig8_report(const CampaignOptions& options, std::ostream* progress);

/// `scaa_campaign faults`: the benign-fault false-positive study. One row
/// per (fault family, intensity) cell — the built-in sweep covers every
/// fault::FaultKind at three intensities plus the no-fault baseline; a
/// non-empty options.fault_plan replaces the sweep with {none, custom}
/// where "custom" runs the parsed plan file. Each cell runs two legs
/// through the streaming runner on identical grids to Table IV's None and
/// Context-Aware rows (same seeds, same chunking) with the cell's plan
/// attached to every item: the benign leg yields the false-positive rate
/// (alert fraction with no attack present), the attacked leg the detection
/// rate and hazards-without-alerts under the same faults. The plan is part
/// of each grid's fingerprint, so checkpoint slices of different cells can
/// never be confused and a resumed cell is bit-identical to an
/// uninterrupted one.
Report faults_report(const CampaignOptions& options, std::ostream* progress);

/// `scaa_campaign ablation` (beyond the paper, motivated by its §V): which
/// ingredient of the Context-Aware attack buys what. "ingredient" rows run
/// variants A (full Context-Aware), B (context trigger, random duration =
/// Random-DUR), C (random trigger, reaction-length duration = Random-ST)
/// and D (A's timing with fixed values) at the default driver reaction
/// time; "reaction" rows rerun A across driver reaction times 1.0-3.5 s.
Report ablation_report(const CampaignOptions& options, std::ostream* progress);

/// `scaa_campaign defense` (the paper's §V future work): the
/// control-invariant detector and the context-aware monitor, attached to
/// every simulation through a defense::DefenseHarness, against Random-ST
/// and Context-Aware attacks. Detection rates are over runs whose attack
/// activated; false alarms are alarms on runs without an activated attack,
/// and the attack-free No Attacks row is the false-positive check.
Report defense_report(const CampaignOptions& options, std::ostream* progress);

/// `scaa_campaign run`: one simulation through the single-sim executor,
/// free-running by default or deadline-clocked with --realtime. The report
/// always carries a "summary" row whose cells are deterministic functions
/// of (scenario, seed, duration) — byte-identical between the two modes,
/// because the deadline clock only decides when ticks fire, never what
/// they compute. --realtime adds wall-clock-derived rows: one "phase:*"
/// row per instrumented subsystem (mean/max latency + histogram) and a
/// "deadline" row (wake jitter, overrun count, miss fraction). A non-empty
/// options.tap_fifo streams live WireFrame bytes there via exp::FifoTap.
///
/// Miss-budget exit policy: when the realtime overrun fraction exceeds
/// options.miss_budget, throws MissBudgetError carrying the finished
/// report — run_campaign_command still writes it, then exits 3.
Report run_report(const CampaignOptions& options, std::ostream* progress);

/// Thrown by run_report when --realtime misses more than --miss-budget
/// allows. Carries the report so the CLI can write it before failing.
class MissBudgetError : public std::runtime_error {
 public:
  MissBudgetError(const std::string& what, Report report_in)
      : std::runtime_error(what), report(std::move(report_in)) {}

  Report report;
};

/// One registered scaa_campaign subcommand.
struct CampaignCommand {
  std::string name;         ///< subcommand token, e.g. "table4"
  std::string paper_ref;    ///< what it reproduces, e.g. "Table IV"
  std::string description;  ///< one-line help
  Report (*run)(const CampaignOptions&, std::ostream*);
};

/// All subcommands, in help/display order.
const std::vector<CampaignCommand>& campaign_commands();

/// Look up a subcommand by name; nullptr when unknown.
const CampaignCommand* find_campaign_command(const std::string& name);

/// Parse flags and run one subcommand end to end: report goes to @p out in
/// the chosen --format, progress/errors go to @p err. Returns the process
/// exit code (0 ok, 2 usage error, 3 realtime miss budget exceeded —
/// the report is still written in that case).
int run_campaign_command(const std::string& name,
                         const std::vector<std::string>& tokens,
                         std::ostream& out, std::ostream& err);

}  // namespace scaa::cli
