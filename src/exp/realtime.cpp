#include "exp/realtime.hpp"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/deadline_clock.hpp"

namespace scaa::exp {

PhaseStats::PhaseStats(std::string phase_name, double hi_us)
    : name(std::move(phase_name)), hist_us(0.0, hi_us, 20) {}

void PhaseStats::add(double seconds) {
  latency_s.add(seconds);
  hist_us.add(seconds * 1e6);
}

RealtimeReport RealtimeExecutor::run(sim::World& world,
                                     const RealtimeConfig& config) {
  if (!std::isfinite(config.period_s) || config.period_s <= 0.0)
    throw std::invalid_argument(
        "RealtimeExecutor: period must be finite and positive");
  if (world.ran_)
    throw std::logic_error(
        "RealtimeExecutor::run: this world already ran; call reset() to "
        "re-arm it before running again");
  world.ran_ = true;

  RealtimeReport report;
  report.period_s = config.period_s;
  const double budget_us = config.period_s * 1e6;
  // The whole-tick histogram spans two budgets so overruns land in the
  // visible upper half; subsystem phases are each a fraction of the budget,
  // so their histograms resolve a tenth of it.
  report.phases.emplace_back("tick", 2.0 * budget_us);
  report.phases.emplace_back("traffic", budget_us / 10.0);
  report.phases.emplace_back("project_sweep", budget_us / 10.0);
  report.phases.emplace_back("ego", budget_us / 10.0);
  report.phases.emplace_back("monitor", budget_us / 10.0);
  enum { kTick = 0, kTraffic, kProject, kEgo, kMonitor };

  util::DeadlineClock clock(config.period_s);
  clock.start();
  bool running = !world.finished();
  while (running) {
    // The exact World::step() phase sequence, with a timestamp at each
    // boundary. No clock value flows into any phase — the simulation's
    // inputs are identical to a free-running run.
    const double t0 = util::monotonic_now_s();
    world.begin_tick();
    const double t1 = util::monotonic_now_s();
    world.project_traffic();
    const double t2 = util::monotonic_now_s();
    world.mid_tick();
    const double t3 = util::monotonic_now_s();
    world.project_ego();
    const double t4 = util::monotonic_now_s();
    running = world.end_tick();
    const double t5 = util::monotonic_now_s();
    double tick_end = t5;
    if (config.slow_tick_hook) {
      config.slow_tick_hook();
      tick_end = util::monotonic_now_s();
    }

    report.phases[kTick].add(tick_end - t0);
    report.phases[kTraffic].add(t1 - t0);
    report.phases[kProject].add((t2 - t1) + (t4 - t3));
    report.phases[kEgo].add(t3 - t2);
    report.phases[kMonitor].add(t5 - t4);

    const util::DeadlineClock::Tick tick = clock.wait_next();
    report.wake_error_s.add(tick.wake_error_s);
    if (tick.overrun) ++report.overruns;
    ++report.ticks;
  }

  report.summary = world.summarize();
  return report;
}

namespace {

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

void append_tap_frame(std::vector<std::uint8_t>& out,
                      const msg::WireFrame& frame) {
  append_le(out, static_cast<std::uint16_t>(frame.topic), 2);
  append_le(out, frame.sequence, 8);
  append_le(out, frame.payload.size(), 4);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

FifoTap::FifoTap(msg::PubSubBus& bus, const std::string& path) : bus_(&bus) {
  if (::mkfifo(path.c_str(), 0600) != 0 && errno != EEXIST)
    throw std::system_error(errno, std::generic_category(),
                            "FifoTap: mkfifo '" + path + "'");
  // A reader that hangs up mid-stream must break the tap, not the
  // simulation: writes to a reader-less pipe raise SIGPIPE, whose default
  // disposition kills the process before write() can even return EPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::system_error(errno, std::generic_category(),
                            "FifoTap: open '" + path + "' for writing");
  fd_.reset(fd);

  subscriptions_.reserve(msg::kTopicCount);
  for (std::size_t i = 1; i <= msg::kTopicCount; ++i) {
    subscriptions_.push_back(bus.subscribe_raw(
        static_cast<msg::Topic>(i),
        [this](const msg::WireFrame& frame) { write_frame(frame); }));
  }
}

FifoTap::~FifoTap() {
  for (const std::uint64_t id : subscriptions_) bus_->unsubscribe(id);
}

void FifoTap::write_frame(const msg::WireFrame& frame) {
  if (broken()) return;
  scratch_.clear();
  append_tap_frame(scratch_, frame);
  if (!util::write_all(fd_.get(), scratch_.data(), scratch_.size())) {
    write_errno_ = errno;
    return;
  }
  ++frames_;
}

}  // namespace scaa::exp
