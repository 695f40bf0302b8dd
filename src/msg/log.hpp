#pragma once

/// @file log.hpp
/// Message logging and replay — the comma.ai-style drive log.
///
/// OpenPilot records every bus message of every drive and can replay a log
/// against new code; the paper's attacker uses exactly such logs for
/// offline reconnaissance (learning thresholds and message formats). The
/// MessageLog records the wire frames crossing a PubSubBus with their step
/// stamps; replay() re-publishes them, in order, onto any bus.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "msg/bus.hpp"

namespace scaa::msg {

/// An owned copy of one wire frame. The bus hands raw subscribers
/// non-owning WireFrame views into a per-publish frame buffer; anything
/// that outlives the handler call (a drive log, a save file) stores this.
struct StoredFrame {
  Topic topic{};
  std::uint64_t sequence = 0;
  std::vector<std::uint8_t> payload;

  /// Non-owning view (valid while this StoredFrame is alive and unchanged).
  WireFrame view() const noexcept { return {topic, sequence, payload}; }
};

/// One recorded frame.
struct LogEntry {
  std::uint64_t step = 0;  ///< capture step (10 ms ticks)
  StoredFrame frame;
};

/// Records all topics (or a subset) from a bus; replays into another.
class MessageLog {
 public:
  /// Start recording every topic on @p bus. The log must not outlive the
  /// bus. @p clock returns the current step for stamping.
  void record_all(PubSubBus& bus, std::function<std::uint64_t()> clock);

  /// Start recording a single topic.
  void record_topic(PubSubBus& bus, Topic topic,
                    std::function<std::uint64_t()> clock);

  /// Stop recording (detach all subscriptions).
  void stop(PubSubBus& bus);

  /// Recorded entries, in capture order.
  const std::vector<LogEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Entries on one topic.
  std::size_t count(Topic topic) const noexcept;

  /// Re-publish every recorded frame onto @p bus, in order. Typed
  /// subscribers on the target bus decode them exactly as live traffic —
  /// sequence numbers are re-stamped by the target bus.
  void replay(PubSubBus& bus) const;

  /// Serialize the log to a binary stream / load it back.
  void save(std::ostream& out) const;
  static MessageLog load(std::istream& in);

 private:
  std::vector<LogEntry> entries_;
  std::vector<std::uint64_t> subscriptions_;
};

/// Replay helper: raw re-publication of one frame (decodes + re-publishes
/// through the typed API so per-topic sequence numbers stay consistent).
void republish(PubSubBus& bus, const WireFrame& frame);

}  // namespace scaa::msg
